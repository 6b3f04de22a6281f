//! Heap "files": the page sequence holding one table.
//!
//! The paper evaluates main-memory-resident workloads; a [`TableHeap`] keeps
//! a table as a sequence of NSM [`Page`]s, append-only, exactly the
//! structure the generated code iterates over (`for p in start_page..=
//! end_page`, `for t in 0..page.num_tuples`).  Heaps also serve as the
//! materialization target for staged inputs and intermediate results
//! ("temporary tables inside the buffer pool" in the paper's terms).
//!
//! Two storage modes share one API:
//!
//! * **Memory** — a plain `Vec<Page>`, the fast path for benchmarks and
//!   paper-scale runs;
//! * **Paged** — pages live in a [`DiskManager`] file and are accessed
//!   through a shared [`BufferPool`], so a table larger than the pool's
//!   `memory_budget_pages` spills and reloads under LRU pressure instead of
//!   growing the process heap.  Engines scan either mode through
//!   [`TableHeap::page_guard`] / [`TableHeap::for_each_record`]; the
//!   borrow-based accessors ([`TableHeap::page`], [`TableHeap::records`],
//!   [`TableHeap::all_rows`], [`TableHeap::record_at`]) remain for
//!   memory-resident heaps only (benches, tests, loaders).

use std::ops::Deref;
use std::sync::Arc;

use hique_types::{HiqueError, Result, Row, Schema};

use crate::buffer::{BufferPool, Fetched, FileId, PageId};
use crate::disk::DiskManager;
use crate::page::Page;

/// A page borrowed from a heap: either a direct reference (memory mode) or
/// a handle on a pinned pool frame's image / a page read past a fully
/// pinned pool (paged mode).  No variant copies the 4 KiB image.
///
/// Dropping a pinned guard unpins the frame; the unpin cannot fail for a
/// guard produced by [`TableHeap::page_guard`] (the frame is resident and
/// pinned by construction), so the drop-path result is discarded.
pub enum PageRef<'a> {
    /// Direct reference into a memory-resident heap (or the paged tail).
    Borrowed(&'a Page),
    /// A pool frame's page, the frame pinned until this guard drops.
    Pinned {
        /// The fetched page (shares the frame's image).
        page: Page,
        /// Pool holding the pinned frame.
        pool: &'a BufferPool,
        /// Address of the pinned frame.
        id: PageId,
    },
    /// Uncached page read directly from disk (pool was fully pinned).
    Owned(Page),
}

impl Deref for PageRef<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        match self {
            PageRef::Borrowed(p) => p,
            PageRef::Pinned { page, .. } => page,
            PageRef::Owned(page) => page,
        }
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        if let PageRef::Pinned { pool, id, .. } = self {
            let _ = pool.unpin(*id);
        }
    }
}

/// Physical storage behind a [`TableHeap`].
///
/// Deliberately not `Clone`: cloning a paged store would alias the backing
/// file and pool `FileId` while duplicating the page/tuple bookkeeping, so
/// appends through either copy would silently corrupt the other.
#[derive(Debug)]
enum HeapStore {
    /// All pages resident in process memory.
    Memory(Vec<Page>),
    /// Pages live in a disk file served through the shared buffer pool.
    Paged {
        pool: Arc<BufferPool>,
        file: FileId,
        /// Number of pages in the file.
        pages: usize,
        /// Records on the last page (avoids a fetch just to learn whether
        /// the next append needs a fresh page).
        last_tuples: usize,
    },
}

/// An append-only sequence of NSM pages with a fixed record layout.
#[derive(Debug)]
pub struct TableHeap {
    schema: Schema,
    store: HeapStore,
    num_tuples: usize,
}

impl TableHeap {
    /// Create an empty memory-resident heap for records laid out by
    /// `schema`.
    pub fn new(schema: Schema) -> Result<Self> {
        if schema.tuple_size() == 0 {
            return Err(HiqueError::Storage(
                "cannot create a heap for a zero-width schema".into(),
            ));
        }
        Ok(TableHeap {
            schema,
            store: HeapStore::Memory(Vec::new()),
            num_tuples: 0,
        })
    }

    /// The record layout of this heap.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// True when the heap's pages are served through a buffer pool rather
    /// than resident memory.
    pub fn is_paged(&self) -> bool {
        matches!(self.store, HeapStore::Paged { .. })
    }

    /// Number of pages currently allocated.
    pub fn num_pages(&self) -> usize {
        match &self.store {
            HeapStore::Memory(pages) => pages.len(),
            HeapStore::Paged { pages, .. } => *pages,
        }
    }

    /// Total number of records across all pages.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// True if the heap holds no records.
    pub fn is_empty(&self) -> bool {
        self.num_tuples == 0
    }

    /// Approximate size of the stored record data in bytes.
    pub fn data_bytes(&self) -> usize {
        self.num_tuples * self.schema.tuple_size()
    }

    /// Move this heap's pages into `disk`, serving all subsequent access
    /// through `pool`.  The in-memory page vector is dropped; the heap keeps
    /// working through the same API (appends included), but every page read
    /// now pins a pool frame and competes for the pool's budget.
    pub fn spill_to_disk(&mut self, pool: &Arc<BufferPool>, disk: Arc<DiskManager>) -> Result<()> {
        self.write_pages_to(&disk)?;
        self.adopt_paged(pool, disk)
    }

    /// Phase one of [`TableHeap::spill_to_disk`]: write every page of a
    /// memory-resident heap into `disk` without modifying the heap.  The
    /// catalog runs this fallible phase for *all* tables before converting
    /// any of them, so an I/O failure (disk full, permissions) leaves the
    /// whole catalog memory-resident instead of half-paged.
    pub(crate) fn write_pages_to(&self, disk: &DiskManager) -> Result<()> {
        let HeapStore::Memory(pages) = &self.store else {
            return Err(HiqueError::Storage(
                "heap is already backed by a paged store".into(),
            ));
        };
        for (i, page) in pages.iter().enumerate() {
            disk.write_page(i, page)?;
        }
        Ok(())
    }

    /// Phase two of [`TableHeap::spill_to_disk`]: swap the memory store for
    /// the paged store.  Cannot fail once `write_pages_to` succeeded, other
    /// than on the (programmer-error) double conversion.
    pub(crate) fn adopt_paged(
        &mut self,
        pool: &Arc<BufferPool>,
        disk: Arc<DiskManager>,
    ) -> Result<()> {
        let HeapStore::Memory(pages) = &self.store else {
            return Err(HiqueError::Storage(
                "heap is already backed by a paged store".into(),
            ));
        };
        let num_pages = pages.len();
        let last_tuples = pages.last().map_or(0, |p| p.num_tuples());
        let file = pool.register_file(disk);
        self.store = HeapStore::Paged {
            pool: Arc::clone(pool),
            file,
            pages: num_pages,
            last_tuples,
        };
        Ok(())
    }

    /// Borrow page `p` directly.
    ///
    /// Memory-resident heaps only (benches and tests); engines scan through
    /// [`TableHeap::page_guard`], which works for both storage modes.
    ///
    /// # Panics
    /// Panics on a paged heap or an out-of-range index.
    #[inline(always)]
    pub fn page(&self, p: usize) -> &Page {
        match &self.store {
            HeapStore::Memory(pages) => &pages[p],
            HeapStore::Paged { .. } => {
                panic!("TableHeap::page is memory-mode only; paged heaps use page_guard")
            }
        }
    }

    /// Fetch page `p` through the storage mode's access path: a direct
    /// borrow for memory heaps, a pinned (or pool-bypassing) page for paged
    /// heaps.  Out-of-range pages — including pages evicted from a heap that
    /// has since grown — surface a typed error, never a panic.
    pub fn page_guard(&self, p: usize) -> Result<PageRef<'_>> {
        match &self.store {
            HeapStore::Memory(pages) => pages.get(p).map(PageRef::Borrowed).ok_or_else(|| {
                HiqueError::Storage(format!(
                    "page {p} out of range ({} pages in heap)",
                    pages.len()
                ))
            }),
            HeapStore::Paged {
                pool, file, pages, ..
            } => {
                if p >= *pages {
                    return Err(HiqueError::Storage(format!(
                        "page {p} out of range ({pages} pages in paged heap)"
                    )));
                }
                match pool.fetch_or_bypass(PageId::new(*file, p))? {
                    Fetched::Pinned(page) => Ok(PageRef::Pinned {
                        page,
                        pool,
                        id: PageId::new(*file, p),
                    }),
                    Fetched::Bypassed(page) => Ok(PageRef::Owned(page)),
                }
            }
        }
    }

    /// Iterator over all pages (memory-resident heaps only; see
    /// [`TableHeap::page`]).
    pub fn pages(&self) -> impl Iterator<Item = &Page> {
        match &self.store {
            HeapStore::Memory(pages) => pages.iter(),
            HeapStore::Paged { .. } => {
                panic!("TableHeap::pages is memory-mode only; paged heaps use page_guard")
            }
        }
    }

    /// Append a raw, already-encoded record.
    pub fn append_record(&mut self, record: &[u8]) -> Result<()> {
        let ts = self.schema.tuple_size();
        if record.len() != ts {
            return Err(HiqueError::Storage(format!(
                "record width {} does not match schema width {ts}",
                record.len()
            )));
        }
        match &mut self.store {
            HeapStore::Memory(pages) => {
                if pages.last().is_none_or(|p| p.is_full()) {
                    pages.push(Page::new(ts)?);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the branch above pushes a page whenever `pages` is empty or its tail is full"
                )]
                let page = pages.last_mut().expect("page allocated above");
                let pushed = page.push_record(record)?;
                debug_assert!(pushed, "freshly allocated page rejected a record");
            }
            HeapStore::Paged {
                pool,
                file,
                pages,
                last_tuples,
            } => {
                // Write-through appends: the fetched page is modified (which
                // copies the image the frame and any reader still share) and
                // installed dirty, so growth after eviction (and scans racing
                // the append through the pool) stay consistent.
                let capacity = crate::page::records_per_page(ts);
                if *pages == 0 || *last_tuples >= capacity {
                    let mut page = Page::new(ts)?;
                    let pushed = page.push_record(record)?;
                    debug_assert!(pushed, "fresh page rejected a record");
                    pool.write(PageId::new(*file, *pages), page)?;
                    *pages += 1;
                    *last_tuples = 1;
                } else {
                    let id = PageId::new(*file, *pages - 1);
                    let mut page = match pool.fetch_or_bypass(id)? {
                        Fetched::Pinned(page) => {
                            pool.unpin(id)?;
                            page
                        }
                        Fetched::Bypassed(page) => page,
                    };
                    if !page.push_record(record)? {
                        return Err(HiqueError::Storage(
                            "paged heap tail accounting out of sync with page contents".into(),
                        ));
                    }
                    pool.write(id, page)?;
                    *last_tuples += 1;
                }
            }
        }
        self.num_tuples += 1;
        Ok(())
    }

    /// Encode and append a [`Row`].
    pub fn append_row(&mut self, row: &Row) -> Result<()> {
        let record = row.to_record(&self.schema)?;
        self.append_record(&record)
    }

    /// Iterate over every record in page/slot order (memory-resident heaps
    /// only; paged heaps scan via [`TableHeap::for_each_record`]).
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        match &self.store {
            HeapStore::Memory(pages) => pages.iter().flat_map(|p| p.records()),
            HeapStore::Paged { .. } => {
                panic!("TableHeap::records is memory-mode only; paged heaps use for_each_record")
            }
        }
    }

    /// Visit every record in page/slot order, fetching pages through the
    /// storage mode's access path.  This is the mode-agnostic scan used by
    /// `ANALYZE` and the DSM decomposition.
    pub fn for_each_record(&self, mut f: impl FnMut(&[u8])) -> Result<()> {
        for p in 0..self.num_pages() {
            let guard = self.page_guard(p)?;
            for record in guard.records() {
                f(record);
            }
        }
        Ok(())
    }

    /// Materialize every record as a [`Row`] (test/result helper; engines
    /// never do this in their hot paths).  Memory-resident heaps only.
    pub fn all_rows(&self) -> Vec<Row> {
        self.records()
            .map(|r| Row::from_record(&self.schema, r))
            .collect()
    }

    /// Fetch the record at (`page`, `slot`), if present.  Memory-resident
    /// heaps only (index probes on paged heaps go through
    /// [`TableHeap::page_guard`]).
    pub fn record_at(&self, page: usize, slot: usize) -> Option<&[u8]> {
        let HeapStore::Memory(pages) = &self.store else {
            panic!("TableHeap::record_at is memory-mode only; paged heaps use page_guard")
        };
        let p = pages.get(page)?;
        if slot < p.num_tuples() {
            Some(p.record(slot))
        } else {
            None
        }
    }

    /// Build a heap from rows in one call (test and data-loading helper).
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Row>) -> Result<Self> {
        let mut heap = TableHeap::new(schema)?;
        for row in rows {
            heap.append_row(&row)?;
        }
        Ok(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Value};
    use std::path::PathBuf;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("pad", DataType::Char(68)),
        ])
    }

    fn row(k: i32) -> Row {
        Row::new(vec![Value::Int32(k), Value::Str("x".into())])
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hique_heap_test_{}_{name}.tbl", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn append_spills_to_new_pages() {
        let mut heap = TableHeap::new(schema()).unwrap();
        assert!(heap.is_empty());
        // 72-byte tuples -> 56 per page; 200 tuples needs 4 pages.
        for i in 0..200 {
            heap.append_row(&row(i)).unwrap();
        }
        assert_eq!(heap.num_tuples(), 200);
        assert_eq!(heap.num_pages(), 4);
        assert_eq!(heap.data_bytes(), 200 * 72);
        assert_eq!(heap.records().count(), 200);
        let rows = heap.all_rows();
        assert_eq!(rows[0].get(0), &Value::Int32(0));
        assert_eq!(rows[199].get(0), &Value::Int32(199));
    }

    #[test]
    fn record_at_bounds() {
        let mut heap = TableHeap::new(schema()).unwrap();
        heap.append_row(&row(7)).unwrap();
        assert!(heap.record_at(0, 0).is_some());
        assert!(heap.record_at(0, 1).is_none());
        assert!(heap.record_at(1, 0).is_none());
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut heap = TableHeap::new(schema()).unwrap();
        assert!(heap.append_record(&[0u8; 3]).is_err());
        assert!(TableHeap::new(Schema::empty()).is_err());
    }

    #[test]
    fn from_rows_builds_equivalent_heap() {
        let rows: Vec<Row> = (0..10).map(row).collect();
        let heap = TableHeap::from_rows(schema(), rows.clone()).unwrap();
        assert_eq!(heap.all_rows(), rows);
        assert_eq!(heap.num_tuples(), 10);
    }

    /// Spill a 200-row heap into a pool of `budget` frames.
    fn paged_heap(name: &str, budget: usize) -> (TableHeap, Arc<BufferPool>, PathBuf) {
        let mut heap = TableHeap::new(schema()).unwrap();
        for i in 0..200 {
            heap.append_row(&row(i)).unwrap();
        }
        let path = temp_path(name);
        let pool = Arc::new(BufferPool::new(budget).unwrap());
        let disk = Arc::new(DiskManager::open(&path).unwrap());
        heap.spill_to_disk(&pool, disk).unwrap();
        (heap, pool, path)
    }

    #[test]
    fn paged_heap_scans_identically_under_tight_budget() {
        let memory = {
            let mut h = TableHeap::new(schema()).unwrap();
            for i in 0..200 {
                h.append_row(&row(i)).unwrap();
            }
            h
        };
        let (paged, pool, path) = paged_heap("scan", 2);
        assert!(paged.is_paged());
        assert!(!memory.is_paged());
        assert_eq!(paged.num_pages(), 4);
        assert_eq!(paged.num_tuples(), 200);
        let mut got: Vec<Vec<u8>> = Vec::new();
        paged.for_each_record(|r| got.push(r.to_vec())).unwrap();
        let want: Vec<Vec<u8>> = memory.records().map(|r| r.to_vec()).collect();
        assert_eq!(got, want);
        // A 2-frame pool over 4 pages must have evicted while scanning.
        let stats = pool.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.misses, 4);
        // A second scan under the same budget re-reads the evicted pages.
        let mut count = 0usize;
        paged.for_each_record(|_| count += 1).unwrap();
        assert_eq!(count, 200);
        assert!(pool.stats().pages_read > 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_heap_grows_and_rescans_after_eviction() {
        let (mut paged, pool, path) = paged_heap("grow", 2);
        // Fill the pool with other pages first so the heap's tail page has
        // certainly been evicted, then grow the table.
        for p in 0..4 {
            drop(paged.page_guard(p).unwrap());
        }
        for i in 200..260 {
            paged.append_row(&row(i)).unwrap();
        }
        assert_eq!(paged.num_tuples(), 260);
        assert_eq!(paged.num_pages(), 5); // 260 rows / 56 per page
        let mut keys: Vec<i32> = Vec::new();
        paged
            .for_each_record(|r| keys.push(i32::from_le_bytes(r[0..4].try_into().unwrap())))
            .unwrap();
        assert_eq!(keys, (0..260).collect::<Vec<_>>());
        assert!(pool.stats().evictions > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_heap_error_paths_are_typed() {
        let (mut paged, pool, path) = paged_heap("errors", 2);
        // Out-of-range page: typed error, not a panic.
        assert!(matches!(paged.page_guard(99), Err(HiqueError::Storage(_))));
        // Double spill: typed error.
        let second = Arc::new(DiskManager::open(temp_path("errors2")).unwrap());
        assert!(matches!(
            paged.spill_to_disk(&pool, second),
            Err(HiqueError::Storage(_))
        ));
        // Width mismatch on the paged append path.
        assert!(paged.append_record(&[1, 2, 3]).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(temp_path("errors2")).ok();
    }

    #[test]
    fn append_under_a_pinned_tail_page_leaves_the_reader_its_image() {
        let (mut paged, pool, path) = paged_heap("pinned_tail", 4);
        let HeapStore::Paged { file, pages, .. } = &paged.store else {
            unreachable!("paged_heap spills")
        };
        let tail = PageId::new(*file, *pages - 1);
        // A reader holds the tail page across two appends to it.
        let held = pool.fetch(tail).unwrap();
        let before = held.num_tuples();
        assert!(!held.is_full(), "the appends below land on this page");
        paged.append_row(&row(1000)).unwrap();
        paged.append_row(&row(1001)).unwrap();
        assert_eq!(held.num_tuples(), before, "the reader's image is unchanged");
        pool.unpin(tail).unwrap();
        assert_eq!(pool.pinned_frames(), 0);
        let guard = paged.page_guard(paged.num_pages() - 1).unwrap();
        assert_eq!(guard.num_tuples(), before + 2);
        assert_eq!(
            hique_types::tuple::read_i32_at(guard.record(before + 1), 0),
            1001
        );
        drop(guard);
        assert_eq!(paged.num_tuples(), 202);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_guard_pins_and_unpins_pool_frames() {
        let (paged, pool, path) = paged_heap("pin", 1);
        {
            let g0 = paged.page_guard(0).unwrap();
            assert_eq!(g0.num_tuples(), 56);
            // The single frame is pinned: a second page bypasses the pool.
            let g1 = paged.page_guard(1).unwrap();
            assert!(matches!(g1, PageRef::Owned(_)));
        }
        // Guards dropped -> the frame is evictable again.
        drop(paged.page_guard(1).unwrap());
        assert_eq!(pool.resident(), 1);
        std::fs::remove_file(&path).ok();
    }
}
