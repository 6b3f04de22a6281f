//! LRU buffer pool.
//!
//! "A buffer manager is responsible for buffering disk pages ...; it uses the
//! LRU replacement policy." (paper, §IV).  The pool caches a bounded number
//! of pages across any number of registered [`DiskManager`] files — base
//! tables and the shared temporary-spill file all compete for the same
//! `capacity` frames, which is what makes `memory_budget_pages` a single
//! global knob.  The least-recently-used unpinned frame is evicted when the
//! pool is full; dirty frames are written back on eviction and on flush.
//!
//! Pin/unpin is safe under the `crates/par` scoped pool: all state
//! transitions (including the disk read that fills a missing frame) happen
//! under one mutex, so two workers fetching the same non-resident page can
//! never double-insert a frame and lose a pin count.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use hique_types::{HiqueError, IoStats, Result};
use parking_lot::Mutex;

use crate::disk::DiskManager;
use crate::fault::FaultPlan;
use crate::page::Page;

/// Identifier of a file registered with a [`BufferPool`].
pub type FileId = u32;

/// Address of one page: which registered file, and which page within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    /// File handle returned by [`BufferPool::register_file`].
    pub file: FileId,
    /// Page number within the file.
    pub page: u32,
}

impl PageId {
    /// Convenience constructor.
    pub fn new(file: FileId, page: usize) -> Self {
        PageId {
            file,
            page: page as u32,
        }
    }
}

/// Multiply-shift hasher of the page table and the file table: their keys
/// are the pool's own small integers (a file id and a page number, both
/// `u32`), hashed on every fetch and every unpin, so SipHash's protection
/// against chosen keys buys nothing here.  Each word is folded in with a
/// rotate and an odd multiplier; the product's low bits (the table's bucket)
/// follow the page number, its high bits (the table's tag) mix both words.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b as u32));
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(32) ^ word as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

struct Frame {
    page: Page,
    pin_count: usize,
    dirty: bool,
    /// Logical clock of the last access, for LRU victim selection.
    last_used: u64,
}

struct PoolState {
    frames: IdMap<PageId, Frame>,
    files: IdMap<FileId, Arc<DiskManager>>,
    next_file: FileId,
    clock: u64,
    stats: BufferPoolStats,
    /// Lifetime high-water mark of resident frames; always ≤ the pool
    /// capacity, which is what makes it the proof obligation of the
    /// `memory_budget_pages` knob.
    peak_resident: usize,
    /// Epoch-tagged peak windows: one entry per live [`PeakWindow`], holding
    /// the high-water mark of resident frames since that window opened.
    /// Every frame insert max-updates all open windows, so concurrent
    /// executions each observe their own per-run peak instead of clobbering
    /// a single shared watermark.
    windows: HashMap<u64, usize>,
    next_window: u64,
    /// Fault-injection schedule shared by every registered file; installed
    /// into each [`DiskManager`] at registration and on
    /// [`BufferPool::set_fault_plan`].
    fault_plan: Option<Arc<FaultPlan>>,
}

/// A fixed-capacity LRU cache of disk pages.
pub struct BufferPool {
    capacity: usize,
    state: Mutex<PoolState>,
}

/// Counters describing buffer pool behaviour (exposed through
/// [`hique_types::ExecStats::io`], `EXPLAIN`, and the experiment harness).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that had to read from disk (including pool-bypass
    /// reads taken when every frame was pinned).
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Whole pages read from disk.
    pub pages_read: u64,
    /// Whole pages written to disk (eviction write-back and flush).
    pub pages_written: u64,
}

impl BufferPoolStats {
    /// The I/O performed since `base` was snapshotted, as the engine-level
    /// counter struct.
    pub fn since(&self, base: &BufferPoolStats) -> IoStats {
        IoStats {
            pool_hits: self.hits - base.hits,
            pool_misses: self.misses - base.misses,
            pool_evictions: self.evictions - base.evictions,
            pages_read: self.pages_read - base.pages_read,
            pages_written: self.pages_written - base.pages_written,
        }
    }
}

/// Outcome of a [`BufferPool::fetch_or_bypass`] request.
pub enum Fetched {
    /// The page is resident and pinned; the caller must
    /// [`BufferPool::unpin`] it.
    Pinned(Page),
    /// Every frame was pinned at capacity, so the page was read directly
    /// from disk without entering the pool.  Nothing to unpin.
    Bypassed(Page),
}

impl BufferPool {
    /// Create a pool of at most `capacity` frames.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(HiqueError::Storage(
                "buffer pool capacity must be > 0".into(),
            ));
        }
        Ok(BufferPool {
            capacity,
            state: Mutex::new(PoolState {
                frames: IdMap::default(),
                files: IdMap::default(),
                next_file: 0,
                clock: 0,
                stats: BufferPoolStats::default(),
                peak_resident: 0,
                windows: HashMap::new(),
                next_window: 0,
                fault_plan: None,
            }),
        })
    }

    /// Register a disk file with the pool, returning the handle used in
    /// [`PageId`]s.  A file registered while a fault plan is installed
    /// inherits it — per-claim spill files join the same schedule as the
    /// base tables.
    pub fn register_file(&self, disk: Arc<DiskManager>) -> FileId {
        let mut s = self.state.lock();
        let id = s.next_file;
        s.next_file += 1;
        disk.set_fault_plan(s.fault_plan.clone());
        s.files.insert(id, disk);
        id
    }

    /// Install (or clear, with `None`) a fault-injection schedule on every
    /// registered file, base tables and spill namespaces alike; files
    /// registered later inherit the plan too.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let mut s = self.state.lock();
        s.fault_plan = plan.clone();
        for disk in s.files.values() {
            disk.set_fault_plan(plan.clone());
        }
    }

    /// The fault-injection schedule currently installed, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.state.lock().fault_plan.clone()
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction and page I/O counters.
    pub fn stats(&self) -> BufferPoolStats {
        self.state.lock().stats
    }

    /// Number of pages currently resident.
    pub fn resident(&self) -> usize {
        self.state.lock().frames.len()
    }

    /// Number of frames with a non-zero pin count.  A quiesced pool (no
    /// query running) must report zero — the chaos harness asserts this
    /// after every faulted or cancelled execution to prove pins cannot leak
    /// through error paths.
    pub fn pinned_frames(&self) -> usize {
        self.state
            .lock()
            .frames
            .values()
            .filter(|f| f.pin_count > 0)
            .count()
    }

    /// Lifetime high-water mark of resident frames (since pool creation).
    /// Never exceeds [`BufferPool::capacity`].  For a *per-execution* peak
    /// use [`BufferPool::begin_peak_window`].
    pub fn peak_resident(&self) -> usize {
        self.state.lock().peak_resident
    }

    /// Open an epoch-tagged residency window: an RAII handle whose peak is
    /// the high-water mark of resident frames between now and the call to
    /// [`PeakWindow::end`] (or drop).  Windows are independent — any number
    /// of concurrent executions can each hold one over the same pool and
    /// each reads its own correct per-run peak, which is what replaces the
    /// old `rebase_peak_resident` scheme where one execution's rebase
    /// clobbered another's watermark.
    pub fn begin_peak_window(&self) -> PeakWindow<'_> {
        let mut s = self.state.lock();
        let id = s.next_window;
        s.next_window += 1;
        let now = s.frames.len();
        s.windows.insert(id, now);
        PeakWindow { pool: self, id }
    }

    /// Drop every resident frame of `file` (without write-back — the caller
    /// is discarding the file's contents) and forget its registration.
    ///
    /// This is the cleanup path for per-claim spill namespaces: their data
    /// is dead once the claim ends, so dirty frames must not be flushed to a
    /// file that is about to be deleted.  Pinned frames of the file are a
    /// caller bug (a page guard outliving its namespace) and surface as a
    /// typed error with nothing removed.
    pub fn unregister_file(&self, file: FileId) -> Result<()> {
        let mut s = self.state.lock();
        if s.frames
            .iter()
            .any(|(id, f)| id.file == file && f.pin_count > 0)
        {
            return Err(HiqueError::Storage(format!(
                "cannot unregister file {file}: pinned frames outstanding"
            )));
        }
        s.frames.retain(|id, _| id.file != file);
        s.files.remove(&file);
        Ok(())
    }

    /// Fetch a page (from memory if resident, otherwise from disk), pin it,
    /// and hand it out.
    ///
    /// The returned [`Page`] is a counted handle on the frame's image, not a
    /// copy of it: a hit costs a counter bump under the lock, and callers
    /// never hold the lock across query execution.  The handle is a value —
    /// a later [`BufferPool::write`] replaces the frame's page and cannot
    /// alter what was handed out, and mutating the handle copies the image
    /// first (see [`Page`]).  The pin is about residency only: it keeps the
    /// frame from being evicted until `unpin`.  Errors with a
    /// typed [`HiqueError::Storage`] when every frame is pinned at capacity
    /// (see [`BufferPool::fetch_or_bypass`] for the non-failing scan path).
    pub fn fetch(&self, id: PageId) -> Result<Page> {
        let mut s = self.state.lock();
        match Self::fetch_locked(&mut s, self.capacity, id, false)? {
            Fetched::Pinned(page) => Ok(page),
            Fetched::Bypassed(_) => unreachable!("strict fetch errors instead of bypassing"),
        }
    }

    /// Like [`BufferPool::fetch`], but when every frame is pinned at
    /// capacity the page is read directly from disk (uncached, unpinned)
    /// instead of failing — scans always make progress, even with a
    /// capacity-1 pool shared by several workers.
    pub fn fetch_or_bypass(&self, id: PageId) -> Result<Fetched> {
        let mut s = self.state.lock();
        Self::fetch_locked(&mut s, self.capacity, id, true)
    }

    fn fetch_locked(
        s: &mut PoolState,
        capacity: usize,
        id: PageId,
        allow_bypass: bool,
    ) -> Result<Fetched> {
        s.clock += 1;
        let clock = s.clock;
        if let Some(frame) = s.frames.get_mut(&id) {
            frame.pin_count += 1;
            frame.last_used = clock;
            let page = frame.page.clone();
            s.stats.hits += 1;
            return Ok(Fetched::Pinned(page));
        }
        // Resolve the file before evicting anything: a request for an
        // unregistered file must fail without churning a victim out of the
        // pool or skewing the miss counters as a side effect.
        let disk = s
            .files
            .get(&id.file)
            .cloned()
            .ok_or_else(|| HiqueError::Storage(format!("unregistered file {}", id.file)))?;
        // Need to bring the page in; make room first.  A full pool with
        // every frame pinned either errors (strict fetch, before touching
        // the disk or the miss counters) or degrades to a bypass read.
        let mut bypass = false;
        if s.frames.len() >= capacity && !Self::evict_one(s)? {
            if !allow_bypass {
                return Err(HiqueError::Storage(
                    "buffer pool exhausted: every frame is pinned".into(),
                ));
            }
            bypass = true;
        }
        s.stats.misses += 1;
        // The read happens under the pool lock on purpose: it serializes
        // fills of the same page, so concurrent workers can never insert two
        // frames for one PageId (which would silently drop a pin count).
        let page = disk.read_page(id.page as usize)?;
        s.stats.pages_read += 1;
        if bypass {
            return Ok(Fetched::Bypassed(page));
        }
        s.frames.insert(
            id,
            Frame {
                page: page.clone(),
                pin_count: 1,
                dirty: false,
                last_used: clock,
            },
        );
        Self::note_resident(s);
        Ok(Fetched::Pinned(page))
    }

    /// Record the current resident count in the lifetime watermark and in
    /// every open peak window.  Called after each `frames.insert`.
    fn note_resident(s: &mut PoolState) {
        let now = s.frames.len();
        s.peak_resident = s.peak_resident.max(now);
        for peak in s.windows.values_mut() {
            if *peak < now {
                *peak = now;
            }
        }
    }

    /// Install new contents for `id`, marking the frame dirty.  A frame that
    /// is currently pinned keeps its pin count.  When the pool is full of
    /// pinned frames the page is written straight to disk instead.
    pub fn write(&self, id: PageId, page: Page) -> Result<()> {
        let mut s = self.state.lock();
        // Validate the file before touching any state: installing a dirty
        // frame for an unregistered file would create an unevictable orphan
        // that wedges every later eviction.
        let disk = s
            .files
            .get(&id.file)
            .cloned()
            .ok_or_else(|| HiqueError::Storage(format!("unregistered file {}", id.file)))?;
        s.clock += 1;
        let clock = s.clock;
        if let Some(frame) = s.frames.get_mut(&id) {
            frame.page = page;
            frame.dirty = true;
            frame.last_used = clock;
            return Ok(());
        }
        if s.frames.len() >= self.capacity && !Self::evict_one(&mut s)? {
            // Fully pinned pool: write through to disk, bypassing the pool.
            disk.write_page(id.page as usize, &page)?;
            s.stats.pages_written += 1;
            return Ok(());
        }
        s.frames.insert(
            id,
            Frame {
                page,
                pin_count: 0,
                dirty: true,
                last_used: clock,
            },
        );
        Self::note_resident(&mut s);
        Ok(())
    }

    /// Decrement the pin count of a previously fetched page.
    ///
    /// Unpinning a page that is not resident, or whose pin count is already
    /// zero, is an accounting bug and returns a typed error rather than
    /// panicking or wrapping around.
    pub fn unpin(&self, id: PageId) -> Result<()> {
        let mut s = self.state.lock();
        let frame = s.frames.get_mut(&id).ok_or_else(|| {
            HiqueError::Storage(format!(
                "unpin of non-resident page {}:{}",
                id.file, id.page
            ))
        })?;
        if frame.pin_count == 0 {
            return Err(HiqueError::Storage(format!(
                "unpin of unpinned page {}:{}",
                id.file, id.page
            )));
        }
        frame.pin_count -= 1;
        Ok(())
    }

    /// Write every dirty frame back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let mut s = self.state.lock();
        let dirty: Vec<PageId> = s
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        for id in dirty {
            let disk = s
                .files
                .get(&id.file)
                .cloned()
                .ok_or_else(|| HiqueError::Storage(format!("unregistered file {}", id.file)))?;
            let page = s.frames[&id].page.clone();
            disk.write_page(id.page as usize, &page)?;
            s.stats.pages_written += 1;
            // Deliberately infallible: `id` came from iterating `frames`
            // under the same lock, so the entry cannot have vanished.
            s.frames.get_mut(&id).expect("frame exists").dirty = false;
        }
        Ok(())
    }

    /// Evict the least-recently-used unpinned frame, writing it back if
    /// dirty.  Returns `Ok(false)` when every frame is pinned (the caller
    /// decides whether that is an error or a bypass); a failed dirty
    /// write-back re-inserts the frame and surfaces the typed error — a
    /// dirty page is never silently dropped.
    fn evict_one(s: &mut PoolState) -> Result<bool> {
        let Some(victim) = s
            .frames
            .iter()
            .filter(|(_, f)| f.pin_count == 0)
            .min_by_key(|(_, f)| f.last_used)
            .map(|(&id, _)| id)
        else {
            return Ok(false);
        };
        // Deliberately infallible: `victim` was selected from `frames`
        // under the same lock held across both statements.
        let frame = s.frames.remove(&victim).expect("victim exists");
        if frame.dirty {
            let Some(disk) = s.files.get(&victim.file).cloned() else {
                s.frames.insert(victim, frame);
                return Err(HiqueError::Storage(format!(
                    "dirty frame {}:{} has no registered file to write back to",
                    victim.file, victim.page
                )));
            };
            if let Err(e) = disk.write_page(victim.page as usize, &frame.page) {
                s.frames.insert(victim, frame);
                return Err(e);
            }
            s.stats.pages_written += 1;
        }
        s.stats.evictions += 1;
        Ok(true)
    }
}

/// One open residency window over a [`BufferPool`] (see
/// [`BufferPool::begin_peak_window`]).  Dropping the handle closes the
/// window; [`PeakWindow::end`] closes it and returns the peak.
pub struct PeakWindow<'a> {
    pool: &'a BufferPool,
    id: u64,
}

impl PeakWindow<'_> {
    /// High-water mark of resident frames since this window opened
    /// (initially the resident count at open time).
    pub fn peak(&self) -> usize {
        // Deliberately infallible: the entry is inserted when the window is
        // created and removed only by this handle's Drop.
        *self
            .pool
            .state
            .lock()
            .windows
            .get(&self.id)
            .expect("open window is registered")
    }

    /// Close the window and return its peak.
    pub fn end(self) -> usize {
        self.peak()
    }
}

impl Drop for PeakWindow<'_> {
    fn drop(&mut self) {
        self.pool.state.lock().windows.remove(&self.id);
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &s.frames.len())
            .field("files", &s.files.len())
            .field("stats", &s.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hique_buffer_test_{}_{name}.tbl",
            std::process::id()
        ));
        p
    }

    fn page_with(value: u64) -> Page {
        let mut p = Page::new(8).unwrap();
        p.push_record(&value.to_le_bytes()).unwrap();
        p
    }

    /// A pool over one freshly written file of `pages` pages.
    fn setup(name: &str, pages: usize, capacity: usize) -> (BufferPool, FileId, PathBuf) {
        let path = temp_path(name);
        std::fs::remove_file(&path).ok();
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        for i in 0..pages {
            dm.write_page(i, &page_with(i as u64)).unwrap();
        }
        let pool = BufferPool::new(capacity).unwrap();
        let file = pool.register_file(dm);
        (pool, file, path)
    }

    #[test]
    fn fetch_hits_after_first_miss_with_exact_counters() {
        let (pool, f, path) = setup("hits", 3, 2);
        pool.fetch(PageId::new(f, 0)).unwrap();
        pool.unpin(PageId::new(f, 0)).unwrap();
        pool.fetch(PageId::new(f, 0)).unwrap();
        pool.unpin(PageId::new(f, 0)).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.pages_read, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.pages_written, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_never_alters_a_page_already_handed_out() {
        let (pool, f, path) = setup("cow", 2, 2);
        let id = PageId::new(f, 0);
        // A reader pins page 0, then the page is rewritten under it.
        let held = pool.fetch(id).unwrap();
        pool.write(id, page_with(77)).unwrap();
        assert_eq!(
            held.record(0),
            &0u64.to_le_bytes(),
            "the guard keeps the old image"
        );
        let fresh = pool.fetch(id).unwrap();
        assert_eq!(
            fresh.record(0),
            &77u64.to_le_bytes(),
            "the next fetch sees the new one"
        );
        // Modifying a fetched copy does not write through to the frame.
        let mut scribbled = pool.fetch(id).unwrap();
        scribbled.overwrite_record(0, &1u64.to_le_bytes()).unwrap();
        assert_eq!(pool.fetch(id).unwrap().record(0), &77u64.to_le_bytes());
        // The rewrite kept the reader's pin: four fetches, four unpins.
        for _ in 0..4 {
            pool.unpin(id).unwrap();
        }
        assert!(pool.unpin(id).is_err());
        assert_eq!(pool.pinned_frames(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (pool, f, path) = setup("lru", 3, 2);
        let id = |p: usize| PageId::new(f, p);
        pool.fetch(id(0)).unwrap();
        pool.unpin(id(0)).unwrap();
        pool.fetch(id(1)).unwrap();
        pool.unpin(id(1)).unwrap();
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.fetch(id(0)).unwrap();
        pool.unpin(id(0)).unwrap();
        pool.fetch(id(2)).unwrap();
        pool.unpin(id(2)).unwrap();
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.stats().evictions, 1);
        // Page 0 should still be a hit, page 1 a miss.
        let before = pool.stats().misses;
        pool.fetch(id(0)).unwrap();
        pool.unpin(id(0)).unwrap();
        assert_eq!(pool.stats().misses, before);
        pool.fetch(id(1)).unwrap();
        pool.unpin(id(1)).unwrap();
        assert_eq!(pool.stats().misses, before + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capacity_one_pool_cycles_through_pages() {
        // The smallest legal pool must still serve any number of pages.
        let (pool, f, path) = setup("cap1", 4, 1);
        for round in 0..2 {
            for p in 0..4usize {
                let page = pool.fetch(PageId::new(f, p)).unwrap();
                assert_eq!(page.record(0), &(p as u64).to_le_bytes(), "round {round}");
                pool.unpin(PageId::new(f, p)).unwrap();
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 8); // nothing can ever be re-used
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 7); // every fill after the first evicts
        assert_eq!(pool.resident(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_pages_are_not_evicted_and_strict_fetch_errors() {
        let (pool, f, path) = setup("pinned", 3, 1);
        pool.fetch(PageId::new(f, 0)).unwrap(); // stays pinned
        let err = pool.fetch(PageId::new(f, 1)).unwrap_err();
        assert!(err.to_string().contains("every frame is pinned"), "{err}");
        // The bypass path still reads the right page without touching the
        // pinned frame.
        match pool.fetch_or_bypass(PageId::new(f, 1)).unwrap() {
            Fetched::Bypassed(page) => assert_eq!(page.record(0), &1u64.to_le_bytes()),
            Fetched::Pinned(_) => panic!("expected a bypass read"),
        }
        assert_eq!(pool.resident(), 1);
        pool.unpin(PageId::new(f, 0)).unwrap();
        assert!(pool.fetch(PageId::new(f, 1)).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dirty_pages_written_back_on_eviction_and_flush() {
        let path = temp_path("dirty");
        std::fs::remove_file(&path).ok();
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        dm.write_page(0, &page_with(0)).unwrap();
        dm.write_page(1, &page_with(1)).unwrap();
        {
            let pool = BufferPool::new(1).unwrap();
            let f = pool.register_file(Arc::clone(&dm));
            pool.write(PageId::new(f, 0), page_with(100)).unwrap();
            // Evict page 0 by fetching page 1.
            pool.fetch(PageId::new(f, 1)).unwrap();
            pool.unpin(PageId::new(f, 1)).unwrap();
            assert_eq!(dm.read_page(0).unwrap().record(0), &100u64.to_le_bytes());
            assert_eq!(pool.stats().pages_written, 1);
            pool.write(PageId::new(f, 1), page_with(200)).unwrap();
            pool.flush_all().unwrap();
            assert_eq!(pool.stats().pages_written, 2);
        }
        assert_eq!(dm.read_page(1).unwrap().record(0), &200u64.to_le_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reread_after_eviction_returns_latest_contents() {
        let (pool, f, path) = setup("reread", 2, 1);
        pool.write(PageId::new(f, 0), page_with(77)).unwrap();
        pool.fetch(PageId::new(f, 1)).unwrap(); // evicts dirty page 0
        pool.unpin(PageId::new(f, 1)).unwrap();
        let page = pool.fetch(PageId::new(f, 0)).unwrap();
        assert_eq!(page.record(0), &77u64.to_le_bytes());
        pool.unpin(PageId::new(f, 0)).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.pages_read, 2); // page 1, then page 0 again
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unpin_accounting_errors_are_typed() {
        let (pool, f, path) = setup("unpin", 1, 2);
        // Non-resident page.
        assert!(matches!(
            pool.unpin(PageId::new(f, 0)),
            Err(HiqueError::Storage(_))
        ));
        pool.fetch(PageId::new(f, 0)).unwrap();
        pool.unpin(PageId::new(f, 0)).unwrap();
        // Underflow: the second unpin must not wrap or panic.
        assert!(matches!(
            pool.unpin(PageId::new(f, 0)),
            Err(HiqueError::Storage(_))
        ));
        // A zero-capacity pool is rejected at construction.
        assert!(matches!(BufferPool::new(0), Err(HiqueError::Storage(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_files_share_one_pool() {
        let pa = temp_path("multi_a");
        let pb = temp_path("multi_b");
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        let da = Arc::new(DiskManager::open(&pa).unwrap());
        let db = Arc::new(DiskManager::open(&pb).unwrap());
        da.write_page(0, &page_with(10)).unwrap();
        db.write_page(0, &page_with(20)).unwrap();
        let pool = BufferPool::new(2).unwrap();
        let fa = pool.register_file(da);
        let fb = pool.register_file(db);
        assert_ne!(fa, fb);
        let a = pool.fetch(PageId::new(fa, 0)).unwrap();
        let b = pool.fetch(PageId::new(fb, 0)).unwrap();
        assert_eq!(a.record(0), &10u64.to_le_bytes());
        assert_eq!(b.record(0), &20u64.to_le_bytes());
        pool.unpin(PageId::new(fa, 0)).unwrap();
        pool.unpin(PageId::new(fb, 0)).unwrap();
        assert!(pool.fetch(PageId::new(99, 0)).is_err());
        // A write to an unregistered file must not install an orphan dirty
        // frame (which would become an unevictable poison victim).
        assert!(pool.write(PageId::new(99, 0), page_with(1)).is_err());
        assert_eq!(pool.resident(), 2);
        // The pool still functions: both real pages remain fetchable.
        pool.fetch(PageId::new(fa, 0)).unwrap();
        pool.unpin(PageId::new(fa, 0)).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn concurrent_fetch_unpin_keeps_pin_accounting_consistent() {
        // Regression for the double-insert race: workers hammering the same
        // small page set through a tiny pool must never hit an unpin
        // underflow, and every pin must be released at the end.
        let (pool, f, path) = setup("race", 4, 2);
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..200usize {
                        let id = PageId::new(f, (i + w) % 4);
                        match pool.fetch_or_bypass(id).unwrap() {
                            Fetched::Pinned(page) => {
                                assert_eq!(page.record(0), &(id.page as u64).to_le_bytes());
                                pool.unpin(id).unwrap();
                            }
                            Fetched::Bypassed(page) => {
                                assert_eq!(page.record(0), &(id.page as u64).to_le_bytes());
                            }
                        }
                    }
                });
            }
        });
        // All pins released: every remaining frame must be evictable.
        for p in 0..4usize {
            pool.fetch(PageId::new(f, p)).unwrap();
            pool.unpin(PageId::new(f, p)).unwrap();
        }
        assert_eq!(pool.resident(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlapping_peak_windows_report_independent_peaks() {
        // Regression for the rebase_peak_resident clobbering bug: two
        // windows over one pool, opened and closed at different times, must
        // each report the high-water mark of *their own* span.
        let (pool, f, path) = setup("windows", 8, 10);
        let id = |p: usize| PageId::new(f, p);
        let a = pool.begin_peak_window();
        assert_eq!(a.peak(), 0);
        for p in 0..3 {
            pool.fetch(id(p)).unwrap();
            pool.unpin(id(p)).unwrap();
        }
        // Window B opens mid-flight at 3 resident frames.
        let b = pool.begin_peak_window();
        assert_eq!(b.peak(), 3);
        for p in 3..5 {
            pool.fetch(id(p)).unwrap();
            pool.unpin(id(p)).unwrap();
        }
        // Closing A must not disturb B (the old rebase did exactly that).
        assert_eq!(a.end(), 5);
        pool.fetch(id(5)).unwrap();
        pool.unpin(id(5)).unwrap();
        assert_eq!(b.end(), 6);
        // The lifetime watermark is unaffected by window churn.
        assert_eq!(pool.peak_resident(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unregister_file_drops_frames_without_write_back() {
        let pa = temp_path("unreg_keep");
        let pb = temp_path("unreg_drop");
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        let da = Arc::new(DiskManager::open(&pa).unwrap());
        let db = Arc::new(DiskManager::open(&pb).unwrap());
        da.write_page(0, &page_with(1)).unwrap();
        db.write_page(0, &page_with(2)).unwrap();
        let pool = BufferPool::new(4).unwrap();
        let fa = pool.register_file(da);
        let fb = pool.register_file(Arc::clone(&db));
        pool.fetch(PageId::new(fa, 0)).unwrap();
        // Dirty frame for fb: unregistering must NOT write it back.
        pool.write(PageId::new(fb, 0), page_with(99)).unwrap();
        // A pinned frame blocks unregistration with a typed error.
        assert!(matches!(
            pool.unregister_file(fa),
            Err(HiqueError::Storage(_))
        ));
        let written = pool.stats().pages_written;
        pool.unregister_file(fb).unwrap();
        assert_eq!(pool.stats().pages_written, written);
        assert_eq!(db.read_page(0).unwrap().record(0), &2u64.to_le_bytes());
        // The file is gone from the pool: fetches now fail as unregistered.
        assert!(pool.fetch(PageId::new(fb, 0)).is_err());
        pool.unpin(PageId::new(fa, 0)).unwrap();
        pool.unregister_file(fa).unwrap();
        assert_eq!(pool.resident(), 0);
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn eviction_write_back_fault_reinserts_dirty_frame_with_exact_counters() {
        // Satellite regression: an injected write fault during eviction must
        // re-insert the dirty frame (no silent data loss), keep every
        // counter exact, fail the triggering fetch with a typed error, and
        // leave the pool fully usable once the plan clears.
        let (pool, f, path) = setup("evict_fault", 3, 1);
        pool.write(PageId::new(f, 0), page_with(111)).unwrap();
        assert_eq!(pool.resident(), 1);
        let plan = Arc::new(FaultPlan::new().fail_nth_write(1));
        pool.set_fault_plan(Some(Arc::clone(&plan)));
        let before = pool.stats();
        // Fetching page 1 must evict dirty page 0; the write-back fails.
        let err = pool.fetch(PageId::new(f, 1)).unwrap_err();
        assert!(err.message().contains("injected fault"), "{err}");
        assert_eq!(plan.injected(), 1);
        // The dirty frame is back in the pool, unpinned, still dirty; no
        // eviction or page-write was counted for the failed attempt.
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.pinned_frames(), 0);
        let after = pool.stats();
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.pages_written, before.pages_written);
        assert_eq!(after.pages_read, before.pages_read);
        // Plan exhausted (one-shot): the next fetch evicts cleanly and the
        // deferred write-back lands the dirty contents on disk.
        let page = pool.fetch(PageId::new(f, 1)).unwrap();
        assert_eq!(page.record(0), &1u64.to_le_bytes());
        pool.unpin(PageId::new(f, 1)).unwrap();
        assert_eq!(pool.stats().pages_written, before.pages_written + 1);
        pool.set_fault_plan(None);
        let page = pool.fetch(PageId::new(f, 0)).unwrap();
        assert_eq!(page.record(0), &111u64.to_le_bytes());
        pool.unpin(PageId::new(f, 0)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_read_fault_fails_fetch_without_installing_a_frame() {
        let (pool, f, path) = setup("read_fault", 2, 2);
        pool.set_fault_plan(Some(Arc::new(FaultPlan::new().fail_nth_read(1))));
        let err = pool.fetch(PageId::new(f, 0)).unwrap_err();
        assert!(err.message().contains("injected fault"), "{err}");
        // No half-installed frame, no pin: the pool stays consistent and
        // serves the same page on retry.
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.pinned_frames(), 0);
        let page = pool.fetch(PageId::new(f, 0)).unwrap();
        assert_eq!(page.record(0), &0u64.to_le_bytes());
        pool.unpin(PageId::new(f, 0)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_delta_maps_to_io_stats() {
        let (pool, f, path) = setup("delta", 2, 1);
        let base = pool.stats();
        pool.fetch(PageId::new(f, 0)).unwrap();
        pool.unpin(PageId::new(f, 0)).unwrap();
        pool.fetch(PageId::new(f, 1)).unwrap();
        pool.unpin(PageId::new(f, 1)).unwrap();
        let io = pool.stats().since(&base);
        assert_eq!(io.pool_misses, 2);
        assert_eq!(io.pool_evictions, 1);
        assert_eq!(io.pages_read, 2);
        assert_eq!(io.pool_hits, 0);
        std::fs::remove_file(&path).ok();
    }
}
