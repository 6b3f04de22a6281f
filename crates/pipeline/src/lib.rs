//! # hique-pipeline
//!
//! The partition-pipeline substrate shared by all five engine modes.
//!
//! The paper stages every input into cache-resident partitions and evaluates
//! each partition with a tight kernel; under a memory budget those staged
//! partitions live in the catalog's [`TempSpace`] as buffer-pool pages.
//! This crate is the one place that knows how to get them back out:
//!
//! * [`SpillContext`] — the per-execution spill namespace claim plus the
//!   size-only spill policy (`memory_budget_pages / 4` of page data), shared
//!   by the holistic, iterator and DSM engines so every engine spills the
//!   same temporaries for the same budget regardless of thread count;
//! * [`PartitionStream`] — a read view of one partition that yields records
//!   **page-at-a-time through pool pin guards** whether the partition is a
//!   memory-resident packed buffer or a spilled page range.  Consumers that
//!   can stream (aggregation scans, output decoding, scatter passes) never
//!   re-materialize a spilled partition; consumers that genuinely need
//!   random access (sorts, merge cursors) call [`PartitionStream::gather`]
//!   explicitly, and the [`ResidencyMeter`] records how many pages each
//!   style held resident so tests can prove the streaming paths stay under
//!   the budget where whole-partition reload could not;
//! * [`PartitionSet`] — a relation's partition streams in partition order,
//!   the one order every consumer reads them in;
//! * [`RunEnvelope`] — what every engine does around one execution: claim
//!   the spill namespace, take the pool and fault baselines, open the peak
//!   window, and at the end fill the storage-side fields of `ExecStats`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hique_par::chunk_ranges;
use hique_storage::{
    records_per_page, BufferPool, BufferPoolStats, PeakWindow, SpillHandle, SpillNamespace,
    TempSpace, PAGE_HEADER_SIZE, PAGE_SIZE,
};
use hique_types::{CancelToken, ExecStats, HiqueError, Result};

/// Bytes of record data one spill page holds.
pub fn page_data_bytes() -> usize {
    PAGE_SIZE - PAGE_HEADER_SIZE
}

// ---------------------------------------------------------------------------
// Residency accounting
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MeterInner {
    current: AtomicUsize,
    peak: AtomicUsize,
}

/// Tracks how many pages' worth of spilled data a consumer holds
/// materialized outside the buffer pool at any moment, with a high-water
/// mark.  Page-at-a-time streams register one page per pin; explicit
/// gathers register the whole range — which is exactly the difference the
/// `peak ≤ budget` tests assert on.
#[derive(Debug, Clone, Default)]
pub struct ResidencyMeter {
    inner: Arc<MeterInner>,
}

/// RAII registration of `pages` resident pages on a [`ResidencyMeter`].
pub struct ResidencyGuard {
    inner: Arc<MeterInner>,
    pages: usize,
}

impl ResidencyMeter {
    /// A fresh meter (current = peak = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `pages` materialized pages until the guard drops.
    pub fn track(&self, pages: usize) -> ResidencyGuard {
        let now = self.inner.current.fetch_add(pages, Ordering::Relaxed) + pages;
        self.inner.peak.fetch_max(now, Ordering::Relaxed);
        ResidencyGuard {
            inner: Arc::clone(&self.inner),
            pages,
        }
    }

    /// Pages currently registered.
    pub fn current(&self) -> usize {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently registered pages.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }
}

impl Drop for ResidencyGuard {
    fn drop(&mut self) {
        self.inner.current.fetch_sub(self.pages, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spill context
// ---------------------------------------------------------------------------

/// Spill policy of one execution: where to spill and from what size.
///
/// Claims a private [`SpillNamespace`] from the catalog's spill space, so
/// any number of concurrent budgeted executions can spill simultaneously
/// without touching each other's pages.  When the space's admission cap is
/// reached, [`SpillContext::acquire`] queues for a slot — the wait is
/// surfaced through [`SpillContext::claim_denied`] and a queue timeout is a
/// typed error, never a silent fallback to an unbounded working set.  The
/// namespace (its file, frames and admission slot) is released when the
/// context drops.
pub struct SpillContext {
    space: SpillNamespace,
    threshold_bytes: usize,
    spilled: AtomicU64,
    denied: bool,
    meter: ResidencyMeter,
    cancel: CancelToken,
}

impl SpillContext {
    /// Claim a spill namespace for one budgeted execution, spilling
    /// temporaries larger than a quarter of the page budget's data capacity
    /// — big enough that small queries stay memory-resident, small enough
    /// that anything actually pressuring the budget goes to the pool.  The
    /// admission wait observes `cancel` (a query queued for a spill slot
    /// cancels within its deadline instead of blocking out the 30 s claim
    /// timeout), and every spilled page pull through this context
    /// re-checks it, so a cancelled execution stops at the next page
    /// boundary.
    pub fn acquire(
        temp: &Arc<TempSpace>,
        budget_pages: usize,
        cancel: CancelToken,
    ) -> Result<Self> {
        let (space, denied) = temp.claim(&cancel)?;
        Ok(SpillContext {
            space,
            threshold_bytes: budget_pages.saturating_mul(page_data_bytes()) / 4,
            spilled: AtomicU64::new(0),
            denied,
            meter: ResidencyMeter::new(),
            cancel,
        })
    }

    /// The cancellation token this execution observes.
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// 1 when this execution's claim was initially denied and had to queue
    /// for an admission slot, 0 otherwise (`ExecStats::spill_claim_denied`).
    pub fn claim_denied(&self) -> u64 {
        u64::from(self.denied)
    }

    /// Byte size above which a temporary is spilled.
    pub fn threshold_bytes(&self) -> usize {
        self.threshold_bytes
    }

    /// The size-only spill decision: `true` when a temporary of `bytes`
    /// bytes goes to the pool.  Depends on nothing but the byte size and
    /// the budget, so `threads = N` spills exactly what `threads = 1`
    /// spills and results stay bit-identical for every budget.
    pub fn should_spill(&self, bytes: usize) -> bool {
        bytes >= self.threshold_bytes.max(1)
    }

    /// The spill namespace this context writes to.
    pub fn temp(&self) -> &SpillNamespace {
        &self.space
    }

    /// Write a packed record buffer into the spill namespace, counting it as
    /// one spilled temporary.
    pub fn spill(&self, buf: &[u8], tuple_size: usize) -> Result<SpillHandle> {
        let handle = self.space.spill_records(buf, tuple_size)?;
        self.spilled.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Number of temporaries spilled through this context so far.
    pub fn spill_count(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    /// The consumer-residency meter of this execution.
    pub fn meter(&self) -> &ResidencyMeter {
        &self.meter
    }
}

// ---------------------------------------------------------------------------
// Run envelope
// ---------------------------------------------------------------------------

/// The storage-side bracket around one query execution, shared by every
/// engine: [`RunEnvelope::begin`] claims the spill namespace (when the run
/// is budgeted and the catalog paged), snapshots the pool and fault
/// counters and opens an epoch-tagged peak window; [`RunEnvelope::finish`]
/// turns those into the run's `io`, `spilled_temporaries`,
/// `spill_claim_denied`, `spill_consumer_peak_pages`, `peak_resident_pages`
/// and `faults_injected`.  Dropping the envelope on an early `?` return
/// releases the claim (file, frames, admission slot) and closes the window.
pub struct RunEnvelope<'a> {
    spill: Option<Arc<SpillContext>>,
    pool: Option<&'a BufferPool>,
    io_base: BufferPoolStats,
    faults_base: u64,
    peak_window: Option<PeakWindow<'a>>,
}

/// Faults injected so far by the plan installed on `pool` (0 without one).
fn faults_injected(pool: Option<&BufferPool>) -> u64 {
    pool.and_then(|p| p.fault_plan())
        .map(|plan| plan.injected())
        .unwrap_or(0)
}

impl<'a> RunEnvelope<'a> {
    /// Open the bracket for a run with a resolved `budget_pages` over a
    /// catalog's storage runtime (`pool` and `temp` are both `None` for a
    /// memory-resident catalog, which makes every reported field zero).
    /// The spill-admission wait observes `cancel`.
    pub fn begin(
        pool: Option<&'a Arc<BufferPool>>,
        temp: Option<&Arc<TempSpace>>,
        budget_pages: usize,
        cancel: &CancelToken,
    ) -> Result<Self> {
        let spill = match temp {
            Some(temp) if budget_pages > 0 => Some(Arc::new(SpillContext::acquire(
                temp,
                budget_pages,
                cancel.clone(),
            )?)),
            _ => None,
        };
        let pool = pool.map(|p| &**p);
        Ok(RunEnvelope {
            spill,
            pool,
            io_base: pool.map(|p| p.stats()).unwrap_or_default(),
            faults_base: faults_injected(pool),
            // Per-execution residency window: the run's own high-water, not
            // the pool's lifetime maximum — concurrent executions each hold
            // their own.
            peak_window: pool.map(|p| p.begin_peak_window()),
        })
    }

    /// The run's spill context (`None`: unbudgeted or memory-resident).
    pub fn spill(&self) -> Option<&SpillContext> {
        self.spill.as_deref()
    }

    /// The spill context as a shared handle, for engines whose operators
    /// each keep one (the iterator tree).
    pub fn spill_shared(&self) -> Option<Arc<SpillContext>> {
        self.spill.clone()
    }

    /// Close the bracket, filling the storage-side fields of `stats`.
    pub fn finish(self, stats: &mut ExecStats) {
        // Buffer-pool traffic of this execution (zero on memory-resident
        // catalogs): base-page fetches plus temporary-table spills/reloads.
        stats.io = self
            .pool
            .map(|p| p.stats().since(&self.io_base))
            .unwrap_or_default();
        if let Some(ctx) = &self.spill {
            stats.spilled_temporaries = ctx.spill_count();
            stats.spill_claim_denied = ctx.claim_denied();
            stats.spill_consumer_peak_pages = ctx.meter().peak() as u64;
        }
        stats.peak_resident_pages = self.peak_window.map(|w| w.end() as u64).unwrap_or(0);
        stats.faults_injected = faults_injected(self.pool).saturating_sub(self.faults_base);
    }
}

// ---------------------------------------------------------------------------
// Partition streams
// ---------------------------------------------------------------------------

/// Where one partition's records live.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// A memory-resident packed buffer.
    Mem(&'a [u8]),
    /// A spilled page range, read back through pool pin guards.
    Spilled {
        ctx: &'a SpillContext,
        handle: SpillHandle,
    },
}

/// A read view of one partition that yields packed records page-at-a-time,
/// independent of whether the partition is memory-resident or spilled.
///
/// Memory partitions are chunked into page-shaped slices (the same
/// `records_per_page` grouping a spill would have produced), so a consumer
/// written against `for_each_page` behaves identically — byte-for-byte, in
/// the same order — for both sources and therefore for every memory budget.
#[derive(Clone, Copy)]
pub struct PartitionStream<'a> {
    source: Source<'a>,
    tuple_size: usize,
}

impl<'a> PartitionStream<'a> {
    /// Stream over a memory-resident packed buffer.
    pub fn mem(buf: &'a [u8], tuple_size: usize) -> Self {
        debug_assert!(tuple_size > 0 && buf.len().is_multiple_of(tuple_size));
        PartitionStream {
            source: Source::Mem(buf),
            tuple_size,
        }
    }

    /// Stream over a spilled page range of `ctx`'s spill space.
    pub fn spilled(ctx: &'a SpillContext, handle: SpillHandle) -> Self {
        PartitionStream {
            source: Source::Spilled { ctx, handle },
            tuple_size: handle.tuple_size,
        }
    }

    /// Record width in bytes.
    pub fn tuple_size(&self) -> usize {
        self.tuple_size
    }

    /// Number of records in the partition.
    pub fn num_records(&self) -> usize {
        match &self.source {
            Source::Mem(buf) => buf.len() / self.tuple_size.max(1),
            Source::Spilled { handle, .. } => handle.records,
        }
    }

    /// Total bytes of record data.
    pub fn data_bytes(&self) -> usize {
        self.num_records() * self.tuple_size
    }

    /// True when the partition lives in the spill space.
    pub fn is_spilled(&self) -> bool {
        matches!(self.source, Source::Spilled { .. })
    }

    /// Visit the partition's records as page-shaped packed slices, in
    /// record order, until `f` fails.  Spilled pages are pinned one at a
    /// time (and counted on the context's [`ResidencyMeter`]); memory
    /// buffers are sliced into the same page-shaped chunks.
    pub fn for_each_page(&self, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let ts = self.tuple_size.max(1);
        match &self.source {
            Source::Mem(buf) => {
                let per_page = records_per_page(ts).max(1);
                for chunk in buf.chunks(per_page * ts) {
                    f(chunk)?;
                }
                Ok(())
            }
            Source::Spilled { ctx, handle } => {
                for i in 0..handle.pages {
                    ctx.cancel.check()?;
                    let guard = ctx.space.page_guard(handle, i)?;
                    let _resident = ctx.meter.track(1);
                    f(guard.data())?;
                }
                Ok(())
            }
        }
    }

    /// Visit every record of the partition in order.
    pub fn for_each_record(&self, mut f: impl FnMut(&[u8])) -> Result<()> {
        let ts = self.tuple_size.max(1);
        self.for_each_page(|page| {
            for rec in page.chunks_exact(ts) {
                f(rec);
            }
            Ok(())
        })
    }

    /// Materialize the whole partition as one packed buffer — the explicit
    /// escape hatch for consumers that need random access (sorts, merge
    /// cursors).  Built page-at-a-time through pin guards; the range is
    /// registered on the residency meter for the span of the gather so the
    /// gap between streaming and gathering consumers stays observable.
    pub fn gather(&self) -> Result<Vec<u8>> {
        self.gather_tracked().map(|(buf, _guard)| buf)
    }

    /// [`PartitionStream::gather`], returning the residency registration to
    /// the caller.  A consumer that holds several gathered partitions alive
    /// at once (e.g. materializing a whole spilled relation) keeps the
    /// guards until it is done, so the meter's high-water reflects the
    /// *cumulative* footprint instead of one partition at a time.
    pub fn gather_tracked(&self) -> Result<(Vec<u8>, Option<ResidencyGuard>)> {
        match &self.source {
            Source::Mem(buf) => Ok((buf.to_vec(), None)),
            Source::Spilled { ctx, handle } => {
                let expect = handle.records * handle.tuple_size;
                let mut out = Vec::with_capacity(expect);
                for i in 0..handle.pages {
                    ctx.cancel.check()?;
                    let guard = ctx.space.page_guard(handle, i)?;
                    out.extend_from_slice(guard.data());
                }
                if out.len() != expect {
                    return Err(HiqueError::Storage(format!(
                        "spilled partition gathered {} bytes, expected {expect}",
                        out.len()
                    )));
                }
                Ok((out, Some(ctx.meter.track(handle.pages))))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Partition-set fan-out
// ---------------------------------------------------------------------------

/// The partition streams of one relation, in partition order.
#[derive(Clone)]
pub struct PartitionSet<'a> {
    streams: Vec<PartitionStream<'a>>,
}

impl<'a> PartitionSet<'a> {
    /// A set over the given streams (partition order preserved).
    pub fn new(streams: Vec<PartitionStream<'a>>) -> Self {
        PartitionSet { streams }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when the set holds no partitions.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The streams in partition order.
    pub fn streams(&self) -> &[PartitionStream<'a>] {
        &self.streams
    }

    /// Total records across partitions.
    pub fn num_records(&self) -> usize {
        self.streams.iter().map(|s| s.num_records()).sum()
    }

    /// Visit the pages of every partition, in partition order, until `f`
    /// fails.
    pub fn for_each_page(&self, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        for s in &self.streams {
            s.for_each_page(&mut f)?;
        }
        Ok(())
    }

    /// Visit every record across partitions, in partition order.
    pub fn for_each_record(&self, mut f: impl FnMut(&[u8])) -> Result<()> {
        for s in &self.streams {
            s.for_each_record(&mut f)?;
        }
        Ok(())
    }

    /// The partitions' packed buffers, when every one is memory-resident.
    fn resident(&self) -> Option<Vec<&'a [u8]>> {
        self.streams
            .iter()
            .map(|s| match s.source {
                Source::Mem(buf) => Some(buf),
                Source::Spilled { .. } => None,
            })
            .collect()
    }

    /// How many of `threads` workers read the set at once — the one worker
    /// rule of every consumer: all of them for a resident set, one for a
    /// set with a spilled partition, whose reader keeps one pinned pool
    /// page resident at a time whatever the pool width.
    pub fn readers(&self, threads: usize) -> usize {
        match self.resident() {
            Some(_) => threads.max(1),
            None => 1,
        }
    }

    /// The set divided among its [`PartitionSet::readers`], each share a
    /// set of its own; the shares in order visit every record once, in
    /// partition order.  One reader takes the whole set.  Several divide
    /// the record sequence by [`chunk_ranges`], a share holding each
    /// partition's slice of its range (empty where the range misses the
    /// partition), so its pages are cut from the start of every slice.
    pub fn shares(&self, threads: usize) -> Vec<PartitionSet<'a>> {
        let readers = self.readers(threads);
        let bufs = match self.resident() {
            Some(bufs) if readers > 1 => bufs,
            _ => return vec![self.clone()],
        };
        chunk_ranges(self.num_records(), readers)
            .into_iter()
            .map(|range| {
                let (mut skip, mut take) = (range.start, range.len());
                let streams = bufs
                    .iter()
                    .zip(&self.streams)
                    .map(|(buf, s)| {
                        let ts = s.tuple_size;
                        let start = skip.min(buf.len() / ts);
                        skip -= start;
                        let end = (start + take).min(buf.len() / ts);
                        take -= end - start;
                        PartitionStream::mem(&buf[start * ts..end * ts], ts)
                    })
                    .collect();
                PartitionSet::new(streams)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_storage::BufferPool;
    use std::path::PathBuf;

    fn temp_space(name: &str, budget: usize) -> (Arc<TempSpace>, Arc<BufferPool>, PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hique_pipeline_test_{}_{name}.spill",
            std::process::id()
        ));
        let pool = Arc::new(BufferPool::new(budget).unwrap());
        let space = Arc::new(TempSpace::create(Arc::clone(&pool), &path).unwrap());
        (space, pool, path)
    }

    fn packed(records: usize, width: usize) -> Vec<u8> {
        (0..records)
            .flat_map(|r| (0..width).map(move |b| ((r * 37 + b) % 251) as u8))
            .collect()
    }

    #[test]
    fn mem_and_spilled_streams_yield_identical_pages_and_records() {
        let (temp, _pool, path) = temp_space("equiv", 4);
        let ctx = SpillContext::acquire(&temp, 1, CancelToken::disabled()).expect("space free");
        let buf = packed(700, 24);
        let handle = ctx.spill(&buf, 24).unwrap();
        assert_eq!(ctx.spill_count(), 1);

        let mem = PartitionStream::mem(&buf, 24);
        let spilled = PartitionStream::spilled(&ctx, handle);
        assert_eq!(mem.num_records(), spilled.num_records());
        assert_eq!(mem.data_bytes(), spilled.data_bytes());
        assert!(!mem.is_spilled() && spilled.is_spilled());

        let mut mem_pages: Vec<Vec<u8>> = Vec::new();
        mem.for_each_page(|p| {
            mem_pages.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        let mut sp_pages: Vec<Vec<u8>> = Vec::new();
        spilled
            .for_each_page(|p| {
                sp_pages.push(p.to_vec());
                Ok(())
            })
            .unwrap();
        // Identical page chunking, identical contents: a consumer written
        // against the stream cannot tell the sources apart.
        assert_eq!(mem_pages, sp_pages);

        let mut mem_recs: Vec<Vec<u8>> = Vec::new();
        mem.for_each_record(|r| mem_recs.push(r.to_vec())).unwrap();
        let mut sp_recs: Vec<Vec<u8>> = Vec::new();
        spilled
            .for_each_record(|r| sp_recs.push(r.to_vec()))
            .unwrap();
        assert_eq!(mem_recs, sp_recs);
        assert_eq!(mem_recs.len(), 700);

        assert_eq!(spilled.gather().unwrap(), buf);
        assert_eq!(mem.gather().unwrap(), buf);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_keeps_one_page_resident_where_gather_holds_the_range() {
        // A 2-frame pool under a multi-page spilled partition: the streaming
        // consumer's materialized footprint stays at one page, the gathering
        // consumer's equals the whole range — the observable difference the
        // page-at-a-time substrate exists to create.
        let (temp, pool, path) = temp_space("meter", 2);
        let ctx = SpillContext::acquire(&temp, 2, CancelToken::disabled()).expect("space free");
        let buf = packed(2000, 16);
        let handle = ctx.spill(&buf, 16).unwrap();
        assert!(handle.pages > 4, "partition must dwarf the pool budget");

        let stream = PartitionStream::spilled(&ctx, handle);
        stream.for_each_record(|_| {}).unwrap();
        assert_eq!(ctx.meter().peak(), 1, "streaming holds one page at a time");
        assert!(pool.peak_resident() <= pool.capacity());

        let gathered = stream.gather().unwrap();
        assert_eq!(gathered, buf);
        assert_eq!(
            ctx.meter().peak(),
            handle.pages,
            "gather registers the whole range"
        );
        assert_eq!(ctx.meter().current(), 0, "all guards released");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_decision_is_size_only_and_contexts_coexist() {
        let (temp, _pool, path) = temp_space("policy", 4);
        let ctx = SpillContext::acquire(&temp, 64, CancelToken::disabled()).expect("claim granted");
        let threshold = ctx.threshold_bytes();
        assert_eq!(threshold, 64 * page_data_bytes() / 4);
        assert!(!ctx.should_spill(threshold - 1));
        assert!(ctx.should_spill(threshold));
        // Multi-tenant: a second context claims its own namespace without
        // waiting, and both spill without interfering.
        let other = SpillContext::acquire(&temp, 64, CancelToken::disabled())
            .expect("second claim granted");
        assert_eq!(ctx.claim_denied() + other.claim_denied(), 0);
        let buf = packed(100, 16);
        let ha = ctx.spill(&buf, 16).unwrap();
        let hb = other.spill(&buf, 16).unwrap();
        assert_eq!(PartitionStream::spilled(&ctx, ha).gather().unwrap(), buf);
        assert_eq!(PartitionStream::spilled(&other, hb).gather().unwrap(), buf);
        drop(other);
        drop(ctx);
        let again = SpillContext::acquire(&temp, 0, CancelToken::disabled()).expect("released");
        // Zero budget: everything spills (threshold clamps to 1 byte).
        assert!(again.should_spill(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partition_set_visits_partitions_in_order() {
        let bufs: Vec<Vec<u8>> = (0..5).map(|p| packed(50 + p * 13, 8)).collect();
        let set = PartitionSet::new(bufs.iter().map(|b| PartitionStream::mem(b, 8)).collect());
        assert_eq!(set.len(), 5);
        assert!(!set.is_empty());
        assert_eq!(
            set.num_records(),
            bufs.iter().map(|b| b.len() / 8).sum::<usize>()
        );
        let mut all = Vec::new();
        set.for_each_record(|r| all.extend_from_slice(r)).unwrap();
        let concat: Vec<u8> = bufs.iter().flatten().copied().collect();
        assert_eq!(all, concat);
    }

    #[test]
    fn shares_divide_a_resident_set_by_record_ranges_and_keep_a_spilled_one_whole() {
        let bufs: Vec<Vec<u8>> = [0, 13, 387, 600].map(|n| packed(n, 8)).into();
        let set = PartitionSet::new(bufs.iter().map(|b| PartitionStream::mem(b, 8)).collect());
        let concat: Vec<u8> = bufs.iter().flatten().copied().collect();
        for threads in [1, 2, 3, 4, 2000] {
            let shares = set.shares(threads);
            assert_eq!(set.readers(threads), threads);
            assert_eq!(shares.len(), chunk_ranges(1000, threads).len());
            let mut all = Vec::new();
            for (share, range) in shares.iter().zip(chunk_ranges(1000, threads)) {
                // One stream per partition, empty where the range misses it.
                assert_eq!(share.len(), 4);
                let mut pages = Vec::new();
                share
                    .for_each_page(|page| {
                        pages.extend_from_slice(page);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(pages, concat[range.start * 8..range.end * 8]);
                all.extend(pages);
            }
            assert_eq!(all, concat, "x{threads}");
        }

        let (temp, _pool, path) = temp_space("shares", 2);
        let ctx = SpillContext::acquire(&temp, 1, CancelToken::disabled()).expect("space free");
        let handle = ctx.spill(&bufs[3], 8).unwrap();
        let spilled = PartitionSet::new(vec![
            PartitionStream::mem(&bufs[2], 8),
            PartitionStream::spilled(&ctx, handle),
        ]);
        assert_eq!(spilled.readers(4), 1);
        let shares = spilled.shares(4);
        assert_eq!(shares.len(), 1);
        assert!(shares[0].streams()[1].is_spilled());
        let mut n = 0;
        shares[0].for_each_record(|_| n += 1).unwrap();
        assert_eq!(n, 987);
        assert_eq!(ctx.meter().peak(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cancelled_context_stops_spilled_pulls_at_a_page_boundary() {
        let (temp, _pool, path) = temp_space("cancel", 4);
        let cancel = CancelToken::new();
        let ctx = SpillContext::acquire(&temp, 1, cancel.clone()).expect("space free");
        let buf = packed(2000, 16);
        let handle = ctx.spill(&buf, 16).unwrap();
        assert!(handle.pages > 2);

        let stream = PartitionStream::spilled(&ctx, handle);
        // Cancel after the second page: the stream surfaces a typed
        // Cancelled error instead of finishing (or panicking), and the
        // residency meter unwinds to zero.
        let mut pages_seen = 0usize;
        let err = stream
            .for_each_page(|_| {
                pages_seen += 1;
                if pages_seen == 2 {
                    cancel.cancel();
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        assert_eq!(pages_seen, 2, "stops at the next page boundary");
        assert_eq!(ctx.meter().current(), 0);
        assert!(matches!(
            stream.gather().unwrap_err(),
            HiqueError::Cancelled(_)
        ));
        // Memory streams of an un-cancelled context are unaffected.
        let free = SpillContext::acquire(&temp, 1, CancelToken::disabled()).unwrap();
        assert!(free.cancel().check().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn envelope_finish_fills_every_storage_field_of_a_budgeted_paged_run() {
        let (temp, pool, path) = temp_space("envelope", 2);
        let envelope =
            RunEnvelope::begin(Some(&pool), Some(&temp), 1, &CancelToken::disabled()).unwrap();
        let ctx = envelope
            .spill()
            .expect("budgeted paged run claims a namespace");
        // A partition far past the 2-frame pool: writing it evicts, streaming
        // it back misses.
        let buf = packed(2000, 16);
        let handle = ctx.spill(&buf, 16).unwrap();
        let stream = PartitionStream::spilled(ctx, handle);
        stream.for_each_record(|_| {}).unwrap();
        // One injected read fault on the second pass.
        let plan = Arc::new(hique_storage::FaultPlan::new().fail_nth_read(1));
        pool.set_fault_plan(Some(plan));
        assert!(stream.for_each_record(|_| {}).is_err());

        // Poison the six fields so each must be overwritten, not left alone.
        let mut stats = ExecStats::new();
        stats.io.pool_hits = u64::MAX;
        stats.spilled_temporaries = u64::MAX;
        stats.spill_claim_denied = u64::MAX;
        stats.spill_consumer_peak_pages = u64::MAX;
        stats.peak_resident_pages = u64::MAX;
        stats.faults_injected = u64::MAX;
        stats.tuples_processed = 7;
        envelope.finish(&mut stats);
        assert!(
            stats.io.pool_misses > 0 && stats.io.pages_written > 0,
            "{stats}"
        );
        assert!(stats.io.pool_hits < u64::MAX, "{stats}");
        assert_eq!(stats.spilled_temporaries, 1);
        assert_eq!(stats.spill_claim_denied, 0);
        assert_eq!(stats.spill_consumer_peak_pages, 1);
        assert_eq!(stats.peak_resident_pages, 2, "the window saw the pool fill");
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(
            stats.tuples_processed, 7,
            "work counters are not its business"
        );
        // Finishing released the claim, its file and every pin.
        assert_eq!(temp.active_claims(), 0);
        assert_eq!(pool.pinned_frames(), 0);
        assert!(!path.with_extension("0.spill").exists());

        // A memory-resident catalog, or an unbudgeted run, reports zeros.
        let mut stats = ExecStats::new();
        let plain = RunEnvelope::begin(None, None, 8, &CancelToken::disabled()).unwrap();
        assert!(plain.spill().is_none());
        plain.finish(&mut stats);
        assert_eq!(stats, ExecStats::new());
        let unbudgeted =
            RunEnvelope::begin(Some(&pool), Some(&temp), 0, &CancelToken::disabled()).unwrap();
        assert!(unbudgeted.spill().is_none());
        assert_eq!(temp.active_claims(), 0);
    }

    #[test]
    fn overlapping_envelopes_report_independent_peaks() {
        let (temp, pool, _path) = temp_space("overlap", 16);
        let cancel = CancelToken::disabled();
        let outer = RunEnvelope::begin(Some(&pool), Some(&temp), 1, &cancel).unwrap();
        let three_pages = packed(3 * records_per_page(16), 16);
        outer.spill().unwrap().spill(&three_pages, 16).unwrap();
        // The inner run opens while three frames are already resident, adds
        // two of its own and ends; the outer run then adds three more.
        let inner = RunEnvelope::begin(Some(&pool), Some(&temp), 1, &cancel).unwrap();
        let two_pages = packed(2 * records_per_page(16), 16);
        inner.spill().unwrap().spill(&two_pages, 16).unwrap();
        let (mut inner_stats, mut outer_stats) = (ExecStats::new(), ExecStats::new());
        inner.finish(&mut inner_stats);
        outer.spill().unwrap().spill(&three_pages, 16).unwrap();
        outer.finish(&mut outer_stats);
        assert_eq!(inner_stats.peak_resident_pages, 5);
        assert_eq!(inner_stats.spilled_temporaries, 1);
        // Ending the inner run dropped its two frames with its namespace;
        // the outer window keeps its own high-water mark.
        assert_eq!(outer_stats.peak_resident_pages, 6);
        assert_eq!(outer_stats.spilled_temporaries, 2);
        assert_eq!(temp.active_claims(), 0);
    }

    #[test]
    fn abandoned_envelope_leaves_no_claim_pin_or_file() {
        let (temp, pool, path) = temp_space("abandon", 2);
        let spill_files = || {
            let dir = path.parent().expect("temp dir");
            let stem = path
                .file_stem()
                .expect("stem")
                .to_string_lossy()
                .to_string();
            std::fs::read_dir(dir)
                .expect("temp dir listing")
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().to_string();
                    name.starts_with(&stem) && name.ends_with(".spill")
                })
                .count()
        };
        // A pre-cancelled statement never gets as far as a claim.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = RunEnvelope::begin(Some(&pool), Some(&temp), 1, &cancelled)
            .err()
            .expect("cancelled before admission");
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        assert_eq!((temp.active_claims(), spill_files()), (0, 0));

        // An execution that returns early with `?` drops its envelope
        // unfinished, mid-way through its spilled data.
        let run = || -> Result<()> {
            let envelope =
                RunEnvelope::begin(Some(&pool), Some(&temp), 1, &CancelToken::disabled())?;
            let ctx = envelope.spill().expect("claimed");
            let handle = ctx.spill(&packed(2000, 16), 16)?;
            assert_eq!((temp.active_claims(), spill_files()), (1, 1));
            let mut pages = 0usize;
            PartitionStream::spilled(ctx, handle).for_each_page(|_| {
                pages += 1;
                Ok(())
            })?;
            Err(HiqueError::Unsupported(format!(
                "gave up after {pages} pages"
            )))
        };
        assert!(matches!(run(), Err(HiqueError::Unsupported(_))));
        assert_eq!((temp.active_claims(), spill_files()), (0, 0));
        assert_eq!(pool.pinned_frames(), 0);
        assert_eq!(pool.resident(), 0, "the namespace took its frames with it");
    }

    #[test]
    fn empty_partitions_stream_nothing() {
        let (temp, _pool, path) = temp_space("empty", 2);
        let ctx = SpillContext::acquire(&temp, 1, CancelToken::disabled()).expect("space free");
        let handle = ctx.spill(&[], 8).unwrap();
        let stream = PartitionStream::spilled(&ctx, handle);
        assert_eq!(stream.num_records(), 0);
        let mut n = 0usize;
        stream.for_each_record(|_| n += 1).unwrap();
        assert_eq!(n, 0);
        assert!(stream.gather().unwrap().is_empty());
        let mem = PartitionStream::mem(&[], 8);
        mem.for_each_page(|_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 0);
        std::fs::remove_file(&path).ok();
    }
}
