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
//! The pool owns its page images.  An image no frame holds waits in a free
//! set ordered by address, and a miss reads into the lowest-addressed one,
//! so a scan that fills the pool lays its pages out as one ascending run of
//! memory — the order the hardware prefetchers follow when staging walks
//! those pages again (DESIGN §9).  Eviction returns the victim's image to
//! the set unless a reader still holds it (then the image leaves with the
//! reader); a new image is allocated only when the set is empty, so the
//! pool never owns more than `capacity` of them.
//!
//! Pin/unpin is safe under the `crates/par` scoped pool: all state
//! transitions (including the disk read that fills a missing frame) happen
//! under one mutex, so two workers fetching the same non-resident page can
//! never double-insert a frame and lose a pin count.

use std::collections::{BTreeMap, HashMap};
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

/// End marker of the LRU list.
const NIL: usize = usize::MAX;

struct Frame {
    id: PageId,
    page: Page,
    pin_count: usize,
    dirty: bool,
    /// Logical clock of the last fetch or write, for LRU victim selection.
    last_used: u64,
    /// Neighbours in the LRU list; meaningful only while unpinned.
    prev: usize,
    next: usize,
}

struct PoolState {
    /// Page table: the index in `frames` of every resident page.
    table: IdMap<PageId, usize>,
    frames: Vec<Frame>,
    /// The unpinned frames in ascending `last_used` order, as a list linked
    /// through `Frame::{prev, next}`: the head is the eviction victim.
    lru_head: usize,
    lru_tail: usize,
    /// Images no frame holds, keyed by address; no handle shares them.
    free: BTreeMap<usize, Page>,
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
                table: IdMap::default(),
                frames: Vec::new(),
                lru_head: NIL,
                lru_tail: NIL,
                free: BTreeMap::new(),
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

    /// Grow the pool's image set to `images` (at most the capacity) in one
    /// pass of allocations, sorted by address in the free set.  The catalog
    /// calls this once, for the pages it is about to serve, so the frames
    /// of the first scans come from one contiguous run of the heap.
    pub(crate) fn reserve(&self, images: usize) {
        let mut s = self.state.lock();
        let held = s.frames.len() + s.free.len();
        // Allocated before any of them enters the set, so no set node lands
        // between two images.
        let fresh: Vec<Page> = (held..images.min(self.capacity))
            .map(|_| Page::blank())
            .collect();
        for page in fresh {
            s.release(page);
        }
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
            .iter()
            .filter(|f| f.pin_count > 0)
            .count()
    }

    /// Page images the pool owns: one per resident frame plus the free set.
    /// Never exceeds [`BufferPool::capacity`]; it drops only when an
    /// evicted or unregistered frame's image leaves with a reader still
    /// holding it, so the chaos harness asserts that no faulted or
    /// cancelled execution lowers it.
    pub fn images(&self) -> usize {
        let s = self.state.lock();
        s.frames.len() + s.free.len()
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
    /// typed error with nothing removed.  The frames' images return to the
    /// free set.
    pub fn unregister_file(&self, file: FileId) -> Result<()> {
        let mut s = self.state.lock();
        if s.frames
            .iter()
            .any(|f| f.id.file == file && f.pin_count > 0)
        {
            return Err(HiqueError::Storage(format!(
                "cannot unregister file {file}: pinned frames outstanding"
            )));
        }
        let mut i = 0;
        while i < s.frames.len() {
            if s.frames[i].id.file == file {
                let page = s.remove_frame(i);
                s.release(page);
            } else {
                i += 1;
            }
        }
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
        match self.state.lock().fetch(self.capacity, id, false)? {
            Fetched::Pinned(page) => Ok(page),
            Fetched::Bypassed(_) => unreachable!("strict fetch errors instead of bypassing"),
        }
    }

    /// Like [`BufferPool::fetch`], but when every frame is pinned at
    /// capacity the page is read directly from disk (uncached, unpinned)
    /// instead of failing — scans always make progress, even with a
    /// capacity-1 pool shared by several workers.
    pub fn fetch_or_bypass(&self, id: PageId) -> Result<Fetched> {
        self.state.lock().fetch(self.capacity, id, true)
    }

    /// Install new contents for `id`, marking the frame dirty.  A frame that
    /// is currently pinned keeps its pin count.  When the pool is full of
    /// pinned frames the page is written straight to disk instead.
    ///
    /// The contents are copied into a pool image: a resident frame's own
    /// image is overwritten in place (copied first if a reader still holds
    /// it, like any [`Page`] mutation), and a new frame takes the
    /// lowest-addressed free image — or `page` itself when the free set is
    /// empty.
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
        if let Some(&i) = s.table.get(&id) {
            let frame = &mut s.frames[i];
            frame.page.bytes_mut().copy_from_slice(page.as_bytes());
            frame.dirty = true;
            frame.last_used = clock;
            if frame.pin_count == 0 {
                s.unlink(i);
                s.link(i);
            }
            return Ok(());
        }
        if s.frames.len() >= self.capacity && !s.evict_one()? {
            // Fully pinned pool: write through to disk, bypassing the pool.
            disk.write_page(id.page as usize, &page)?;
            s.stats.pages_written += 1;
            return Ok(());
        }
        let page = match s.free.pop_first() {
            Some((_, mut image)) => {
                image.bytes_mut().copy_from_slice(page.as_bytes());
                image
            }
            None => page,
        };
        s.insert(Frame {
            id,
            page,
            pin_count: 0,
            dirty: true,
            last_used: clock,
            prev: NIL,
            next: NIL,
        });
        Ok(())
    }

    /// Decrement the pin count of a previously fetched page.
    ///
    /// Unpinning a page that is not resident, or whose pin count is already
    /// zero, is an accounting bug and returns a typed error rather than
    /// panicking or wrapping around.
    pub fn unpin(&self, id: PageId) -> Result<()> {
        let mut s = self.state.lock();
        let Some(&i) = s.table.get(&id) else {
            return Err(HiqueError::Storage(format!(
                "unpin of non-resident page {}:{}",
                id.file, id.page
            )));
        };
        let frame = &mut s.frames[i];
        if frame.pin_count == 0 {
            return Err(HiqueError::Storage(format!(
                "unpin of unpinned page {}:{}",
                id.file, id.page
            )));
        }
        frame.pin_count -= 1;
        if frame.pin_count == 0 {
            s.link(i);
        }
        Ok(())
    }

    /// Write every dirty frame back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        for frame in s.frames.iter_mut().filter(|f| f.dirty) {
            let disk = s.files.get(&frame.id.file).ok_or_else(|| {
                HiqueError::Storage(format!("unregistered file {}", frame.id.file))
            })?;
            disk.write_page(frame.id.page as usize, &frame.page)?;
            s.stats.pages_written += 1;
            frame.dirty = false;
        }
        Ok(())
    }
}

impl PoolState {
    fn fetch(&mut self, capacity: usize, id: PageId, allow_bypass: bool) -> Result<Fetched> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(&i) = self.table.get(&id) {
            if self.frames[i].pin_count == 0 {
                self.unlink(i);
            }
            let frame = &mut self.frames[i];
            frame.pin_count += 1;
            frame.last_used = clock;
            self.stats.hits += 1;
            return Ok(Fetched::Pinned(frame.page.clone()));
        }
        // Resolve the file before evicting anything: a request for an
        // unregistered file must fail without churning a victim out of the
        // pool or skewing the miss counters as a side effect.
        let disk = self
            .files
            .get(&id.file)
            .cloned()
            .ok_or_else(|| HiqueError::Storage(format!("unregistered file {}", id.file)))?;
        // Need to bring the page in; make room first.  A full pool with
        // every frame pinned either errors (strict fetch, before touching
        // the disk or the miss counters) or degrades to a bypass read into
        // an image of its own (the free set is empty when every frame is
        // resident), which leaves with the caller.
        if self.frames.len() >= capacity && !self.evict_one()? {
            if !allow_bypass {
                return Err(HiqueError::Storage(
                    "buffer pool exhausted: every frame is pinned".into(),
                ));
            }
            self.stats.misses += 1;
            let page = disk.read_page(id.page as usize)?;
            self.stats.pages_read += 1;
            return Ok(Fetched::Bypassed(page));
        }
        self.stats.misses += 1;
        // The read happens under the pool lock on purpose: it serializes
        // fills of the same page, so concurrent workers can never insert two
        // frames for one PageId (which would silently drop a pin count).
        let mut page = self
            .free
            .pop_first()
            .map_or_else(Page::blank, |(_, image)| image);
        if let Err(e) = disk.read_into(id.page as usize, &mut page) {
            self.release(page);
            return Err(e);
        }
        self.stats.pages_read += 1;
        self.insert(Frame {
            id,
            page: page.clone(),
            pin_count: 1,
            dirty: false,
            last_used: clock,
            prev: NIL,
            next: NIL,
        });
        Ok(Fetched::Pinned(page))
    }

    /// Install a frame (an unpinned one joins the LRU list) and record the
    /// resident count in the lifetime watermark and every open peak window.
    fn insert(&mut self, frame: Frame) {
        let i = self.frames.len();
        self.table.insert(frame.id, i);
        let unpinned = frame.pin_count == 0;
        self.frames.push(frame);
        if unpinned {
            self.link(i);
        }
        let now = self.frames.len();
        self.peak_resident = self.peak_resident.max(now);
        for peak in self.windows.values_mut() {
            if *peak < now {
                *peak = now;
            }
        }
    }

    /// Remove unpinned frame `i` and return its page; the last frame moves
    /// into slot `i`.
    fn remove_frame(&mut self, i: usize) -> Page {
        self.unlink(i);
        let frame = self.frames.swap_remove(i);
        self.table.remove(&frame.id);
        if let Some(moved) = self.frames.get(i) {
            let (id, linked, prev, next) = (moved.id, moved.pin_count == 0, moved.prev, moved.next);
            self.table.insert(id, i);
            if linked {
                self.splice(prev, next, i);
            }
        }
        frame.page
    }

    /// Take back an image no frame holds: into the free set, unless a
    /// reader still holds it — then it leaves with the reader.
    fn release(&mut self, page: Page) {
        if !page.is_shared() {
            self.free.insert(page.addr(), page);
        }
    }

    /// Put unpinned frame `i` into the LRU list at its `last_used` rank.
    /// The walk back from the tail stops at once unless pages fetched after
    /// this one were unpinned before it.
    fn link(&mut self, i: usize) {
        let key = self.frames[i].last_used;
        let mut prev = self.lru_tail;
        while prev != NIL && self.frames[prev].last_used > key {
            prev = self.frames[prev].prev;
        }
        let next = match prev {
            NIL => self.lru_head,
            p => self.frames[p].next,
        };
        self.splice(prev, next, i);
    }

    /// Make `i` the list node between `prev` and `next`.
    fn splice(&mut self, prev: usize, next: usize, i: usize) {
        self.frames[i].prev = prev;
        self.frames[i].next = next;
        match prev {
            NIL => self.lru_head = i,
            p => self.frames[p].next = i,
        }
        match next {
            NIL => self.lru_tail = i,
            n => self.frames[n].prev = i,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.frames[i].prev, self.frames[i].next);
        match prev {
            NIL => self.lru_head = next,
            p => self.frames[p].next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.frames[n].prev = prev,
        }
    }

    /// Evict the least-recently-used unpinned frame (the head of the LRU
    /// list), writing it back if dirty, and return its image to the free
    /// set.  Returns `Ok(false)` when every frame is pinned (the caller
    /// decides whether that is an error or a bypass); a failed dirty
    /// write-back leaves the frame in place and surfaces the typed error — a
    /// dirty page is never silently dropped.
    fn evict_one(&mut self) -> Result<bool> {
        let victim = self.lru_head;
        if victim == NIL {
            return Ok(false);
        }
        let frame = &self.frames[victim];
        if frame.dirty {
            let id = frame.id;
            let disk = self.files.get(&id.file).ok_or_else(|| {
                HiqueError::Storage(format!(
                    "dirty frame {}:{} has no registered file to write back to",
                    id.file, id.page
                ))
            })?;
            disk.write_page(id.page as usize, &frame.page)?;
            self.stats.pages_written += 1;
        }
        let page = self.remove_frame(victim);
        self.release(page);
        self.stats.evictions += 1;
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
    #[expect(
        clippy::expect_used,
        reason = "the window's entry is inserted when the window opens and removed only by this handle's Drop"
    )]
    pub fn peak(&self) -> usize {
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

    impl BufferPool {
        /// Every structural invariant of the frame set: the page table and
        /// the frames agree, the LRU list holds exactly the unpinned frames
        /// in ascending `last_used` order, free images are unshared and
        /// keyed by their address, and the pool owns at most `capacity`
        /// images.
        fn audit(&self) {
            let s = self.state.lock();
            assert!(
                s.frames.len() + s.free.len() <= self.capacity,
                "images over capacity"
            );
            assert_eq!(s.table.len(), s.frames.len());
            for (i, frame) in s.frames.iter().enumerate() {
                assert_eq!(s.table[&frame.id], i);
                assert!(!s.free.contains_key(&frame.page.addr()));
            }
            for (&addr, image) in &s.free {
                assert_eq!(addr, image.addr());
                assert!(!image.is_shared());
            }
            let (mut prev, mut at, mut linked) = (NIL, s.lru_head, 0);
            while at != NIL {
                let frame = &s.frames[at];
                assert_eq!(frame.prev, prev);
                assert_eq!(frame.pin_count, 0, "a pinned frame is in the LRU list");
                if prev != NIL {
                    assert!(
                        s.frames[prev].last_used < frame.last_used,
                        "LRU list out of order"
                    );
                }
                (prev, at, linked) = (at, frame.next, linked + 1);
            }
            assert_eq!(s.lru_tail, prev);
            assert_eq!(linked, s.frames.iter().filter(|f| f.pin_count == 0).count());
        }
    }

    /// xorshift64*: the seeded stream of the property tests.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
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
        let (pool, f, path) = setup("cow", 3, 2);
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
        // With no reader left, a write lands in the frame's own image: the
        // pool keeps its images and a page fetched afterwards sits where
        // the one before it did.
        drop((held, fresh, scribbled));
        let addr = pool.fetch(id).unwrap().addr();
        pool.unpin(id).unwrap();
        pool.write(id, page_with(78)).unwrap();
        let after = pool.fetch(id).unwrap();
        assert_eq!(after.record(0), &78u64.to_le_bytes());
        assert_eq!(after.addr(), addr);
        pool.unpin(id).unwrap();
        // A guard taken before a write keeps the old image: the frame copies
        // the write into a fresh image, and evicting the frame returns that
        // one to the free set while the guard's image stays with the guard.
        let held = pool.fetch(id).unwrap();
        pool.unpin(id).unwrap();
        pool.write(id, page_with(79)).unwrap();
        for p in [1, 2] {
            pool.fetch(PageId::new(f, p)).unwrap();
            pool.unpin(PageId::new(f, p)).unwrap();
        }
        assert_eq!(held.record(0), &78u64.to_le_bytes());
        assert_eq!(pool.images(), pool.capacity());
        pool.audit();
        let reread = pool.fetch(id).unwrap();
        assert_eq!(reread.record(0), &79u64.to_le_bytes());
        assert_ne!(reread.addr(), held.addr());
        pool.unpin(id).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lru_victim_is_the_least_recently_fetched_whatever_the_unpin_order() {
        let (pool, f, path) = setup("lru_order", 4, 3);
        let id = |p: usize| PageId::new(f, p);
        for p in 0..3 {
            pool.fetch(id(p)).unwrap();
        }
        // Unpinned newest first: the list still ranks them by fetch time.
        for p in [2, 1, 0] {
            pool.unpin(id(p)).unwrap();
            pool.audit();
        }
        pool.fetch(id(3)).unwrap();
        pool.unpin(id(3)).unwrap();
        let misses = pool.stats().misses;
        for p in [1, 2, 3] {
            pool.fetch(id(p)).unwrap();
            pool.unpin(id(p)).unwrap();
        }
        assert_eq!(pool.stats().misses, misses, "page 0 was the victim");
        pool.fetch(id(0)).unwrap();
        pool.unpin(id(0)).unwrap();
        assert_eq!(pool.stats().misses, misses + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_accounting_holds_under_seeded_operation_mixes() {
        const PAGES: usize = 10;
        const CAPACITY: usize = 4;
        for seed in 1..=24u64 {
            let (pool, f, path) = setup(&format!("mix_{seed}"), PAGES, CAPACITY);
            // A partial reserve: the rest of the images come on demand.
            pool.reserve(2);
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Latest contents of every page of `f`, and of the pages written
            // to the current spill-like file `g` since it was registered.
            let mut want: Vec<u64> = (0..PAGES as u64).collect();
            let mut spill: Vec<u64> = Vec::new();
            let spill_path = |n: u64| temp_path(&format!("mix_{seed}_spill_{n}"));
            let mut registrations = 0u64;
            let mut g = pool.register_file(Arc::new(DiskManager::open(spill_path(0)).unwrap()));
            // Pages handed out and still held: (id, page, contents at hand-out, pinned).
            let mut held: Vec<(PageId, Page, u64, bool)> = Vec::new();
            for _ in 0..300 {
                let r = next(&mut rng);
                let (file, p, value) = if !spill.is_empty() && r.is_multiple_of(3) {
                    let p = (r >> 8) as usize % spill.len();
                    (g, p, spill[p])
                } else {
                    let p = (r >> 8) as usize % PAGES;
                    (f, p, want[p])
                };
                let id = PageId::new(file, p);
                match r % 7 {
                    0 => match pool.fetch(id) {
                        Ok(page) => held.push((id, page, value, true)),
                        Err(e) => assert!(e.message().contains("every frame is pinned"), "{e}"),
                    },
                    1 => match pool.fetch_or_bypass(id).unwrap() {
                        Fetched::Pinned(page) => held.push((id, page, value, true)),
                        Fetched::Bypassed(page) => held.push((id, page, value, false)),
                    },
                    2 if !held.is_empty() => {
                        // Unpin a held page; the reader may keep its image.
                        let k = (r >> 8) as usize % held.len();
                        if held[k].3 {
                            pool.unpin(held[k].0).unwrap();
                            held[k].3 = false;
                        }
                        if r & (1 << 40) != 0 {
                            held.swap_remove(k);
                        }
                    }
                    3 => {
                        let v = r >> 16;
                        if file == f {
                            pool.write(id, page_with(v)).unwrap();
                            want[p] = v;
                        } else {
                            // Spill-like: append the next page of `g`.
                            let id = PageId::new(g, spill.len());
                            pool.write(id, page_with(v)).unwrap();
                            spill.push(v);
                        }
                    }
                    4 => {
                        let plan = Arc::new(FaultPlan::new().fail_nth_read(1));
                        pool.set_fault_plan(Some(Arc::clone(&plan)));
                        let fetched = pool.fetch_or_bypass(id);
                        pool.set_fault_plan(None);
                        match fetched {
                            Err(e) => assert!(e.message().contains("injected fault"), "{e}"),
                            Ok(Fetched::Pinned(page)) => held.push((id, page, value, true)),
                            Ok(Fetched::Bypassed(page)) => held.push((id, page, value, false)),
                        }
                    }
                    5 => {
                        let pinned = held.iter().any(|h| h.3 && h.0.file == g);
                        match pool.unregister_file(g) {
                            Ok(()) => {
                                assert!(!pinned);
                                registrations += 1;
                                let disk = DiskManager::open(spill_path(registrations)).unwrap();
                                g = pool.register_file(Arc::new(disk));
                                spill.clear();
                            }
                            Err(_) => assert!(pinned),
                        }
                    }
                    _ => {
                        // A reader lets go of its image.
                        held.retain(|h| h.3);
                    }
                }
                pool.audit();
                assert!(pool.resident() <= CAPACITY);
                for (id, page, value, _) in &held {
                    assert_eq!(
                        page.record(0),
                        &value.to_le_bytes(),
                        "{id:?} changed while held"
                    );
                }
            }
            for (id, _, _, pinned) in held.drain(..) {
                if pinned {
                    pool.unpin(id).unwrap();
                }
            }
            pool.audit();
            assert_eq!(pool.pinned_frames(), 0);
            // Every page of `f` reads back its latest contents.
            for (p, value) in want.iter().enumerate() {
                let page = pool.fetch(PageId::new(f, p)).unwrap();
                assert_eq!(page.record(0), &value.to_le_bytes());
                pool.unpin(PageId::new(f, p)).unwrap();
            }
            std::fs::remove_file(&path).ok();
            for n in 0..=registrations {
                std::fs::remove_file(spill_path(n)).ok();
            }
        }
    }

    #[test]
    fn faulted_misses_leave_the_free_set_unchanged() {
        let (pool, f, path) = setup("faulted_misses", 8, 4);
        pool.reserve(4);
        for p in 0..2 {
            pool.fetch(PageId::new(f, p)).unwrap();
            pool.unpin(PageId::new(f, p)).unwrap();
        }
        let free = pool.state.lock().free.len();
        let before = pool.stats();
        assert_eq!((free, pool.images()), (2, 4));
        for n in 0..1000 {
            let plan = match n % 2 {
                0 => FaultPlan::new().fail_nth_read(1),
                _ => FaultPlan::new().short_nth_read(1),
            };
            pool.set_fault_plan(Some(Arc::new(plan)));
            let err = pool.fetch(PageId::new(f, 2 + n % 6)).unwrap_err();
            assert!(err.message().contains("injected fault"), "{err}");
        }
        pool.set_fault_plan(None);
        assert_eq!(pool.state.lock().free.len(), free);
        assert_eq!((pool.images(), pool.resident()), (4, 2));
        let after = pool.stats();
        assert_eq!(after.misses, before.misses + 1000);
        assert_eq!(after.pages_read, before.pages_read);
        pool.audit();
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
