//! Temporary-table spill space: the paper's "temporary tables inside the
//! buffer pool", multiplexed across concurrent executions.
//!
//! Staged inputs and join intermediates are packed arrays of fixed-length
//! records.  Under a memory budget an executor writes them into a spill file
//! *through the buffer pool* — the spilled pages are ordinary dirty frames
//! that the LRU policy writes back to disk under pressure and reloads on
//! demand, so temporaries compete with base-table pages for the same
//! `memory_budget_pages` frames.
//!
//! [`TempSpace`] is the admission-controlled factory: each execution claims
//! a private [`SpillNamespace`] — its own temp file registered with the
//! shared pool — so concurrent sessions can spill simultaneously without
//! overwriting each other's pages.  The number of simultaneous claims is
//! capped ([`TempSpace::set_max_claims`]); a claim past the cap queues on a
//! condvar until a slot frees, so a budgeted execution is never silently
//! degraded to an unbounded working set.  Dropping a namespace discards its
//! frames (no write-back — the data is dead), deletes its file, and wakes
//! one queued claimer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use hique_types::{CancelToken, HiqueError, Result};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, Fetched, FileId, PageId};
use crate::disk::DiskManager;
use crate::page::{records_per_page, Page, PAGE_HEADER_SIZE, PAGE_SIZE};

/// How long a queued spill claim waits for a slot before surfacing a typed
/// admission error.  Long enough to ride out any real execution; short
/// enough that a leaked claim cannot hang a server forever.
const CLAIM_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a queued claim re-checks its cancel token while waiting for a
/// slot: a cancelled or past-deadline query leaves the admission queue
/// within one slice instead of riding out the full claim timeout.
const CANCEL_POLL: Duration = Duration::from_millis(25);

/// A page range in a spill namespace holding one packed record buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillHandle {
    /// First page of the range.
    pub start: usize,
    /// Number of pages.
    pub pages: usize,
    /// Number of records stored.
    pub records: usize,
    /// Record width in bytes.
    pub tuple_size: usize,
}

/// One spilled page borrowed from a [`SpillNamespace`]: a pool frame's page
/// (shared image, no copy) that stays pinned until the guard drops, or an uncached bypass read when every
/// frame was pinned.  This is the primitive behind page-at-a-time
/// consumption of spilled partitions — a consumer holds at most one page of
/// a spilled buffer resident outside the pool, instead of reloading the
/// whole range.  While any guard is live its namespace refuses
/// [`SpillNamespace::reset`], so a handle can never be invalidated under a
/// reader.
pub struct SpillPageRef<'a> {
    page: Page,
    /// Present when the page is a pinned pool frame that must be unpinned.
    pinned: Option<(&'a BufferPool, PageId)>,
    /// Live-guard count of the owning namespace.
    guards: &'a AtomicUsize,
}

impl SpillPageRef<'_> {
    /// The packed record bytes of this page.
    pub fn data(&self) -> &[u8] {
        self.page.data()
    }
}

impl std::ops::Deref for SpillPageRef<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.page
    }
}

impl Drop for SpillPageRef<'_> {
    fn drop(&mut self) {
        if let Some((pool, id)) = self.pinned {
            // The frame is resident and pinned by construction, so the unpin
            // cannot fail for a guard produced by
            // `SpillNamespace::page_guard`.
            let _ = pool.unpin(id);
        }
        self.guards.fetch_sub(1, Ordering::Release);
    }
}

struct ClaimState {
    /// Maximum number of simultaneous claims (admission control).
    max_claims: usize,
    /// Currently outstanding claims.
    active: usize,
    /// Monotonic namespace id, used to name per-claim spill files.
    next_id: u64,
}

/// Admission-controlled factory of per-execution spill namespaces, shared by
/// every execution of one paged catalog.
pub struct TempSpace {
    pool: Arc<BufferPool>,
    /// Base path; claim `i` spills to `<base>.<i>`.
    base: PathBuf,
    state: StdMutex<ClaimState>,
    released: Condvar,
}

impl TempSpace {
    /// Lock the claim state, recovering from poison.  A client thread that
    /// panics mid-claim must not permanently wedge every other session: the
    /// state the lock protects is three plain counters whose consistency is
    /// maintained by RAII (`SpillNamespace::drop` releases the slot even
    /// during an unwind), so the poisoned guard's data is always valid and
    /// recovery is sound.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, ClaimState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Create a spill-space factory rooted at `path`, backed by `pool`.
    /// No file is created until a claim is made.  The default admission cap
    /// is effectively unlimited; servers size it to their session count via
    /// [`TempSpace::set_max_claims`].
    pub fn create(pool: Arc<BufferPool>, path: impl AsRef<Path>) -> Result<Self> {
        Ok(TempSpace {
            pool,
            base: path.as_ref().to_path_buf(),
            state: StdMutex::new(ClaimState {
                max_claims: usize::MAX,
                active: 0,
                next_id: 0,
            }),
            released: Condvar::new(),
        })
    }

    /// Cap the number of simultaneously claimed namespaces.  A server sets
    /// this to its session count so spill capacity is split by admission
    /// control rather than by racing.
    pub fn set_max_claims(&self, n: usize) {
        let mut s = self.lock_state();
        s.max_claims = n.max(1);
        drop(s);
        self.released.notify_all();
    }

    /// Number of currently outstanding claims.
    pub fn active_claims(&self) -> usize {
        self.lock_state().active
    }

    /// Base path of the spill files (claim `i` lives at `<base>.<i>`).
    pub fn path(&self) -> &Path {
        &self.base
    }

    /// Claim a private spill namespace, queueing (up to an internal
    /// timeout) when the admission cap is reached.  Returns the namespace
    /// and whether the claim was initially denied and had to wait — the
    /// executor surfaces that as `ExecStats::spill_claim_denied` instead of
    /// silently running unbounded, which is the bug this replaces.
    pub fn claim(self: &Arc<Self>) -> Result<(SpillNamespace, bool)> {
        self.claim_cancellable(&CancelToken::disabled())
    }

    /// Like [`TempSpace::claim`], but a queued wait polls `cancel` between
    /// condvar slices: a query blocked in spill admission observes its
    /// deadline (or an explicit cancel) within `CANCEL_POLL` instead of
    /// holding its queue position for the full claim timeout.
    pub fn claim_cancellable(
        self: &Arc<Self>,
        cancel: &CancelToken,
    ) -> Result<(SpillNamespace, bool)> {
        cancel.check()?;
        let (id, denied) = {
            let mut s = self.lock_state();
            let denied = s.active >= s.max_claims;
            let deadline = Instant::now() + CLAIM_TIMEOUT;
            while s.active >= s.max_claims {
                cancel.check()?;
                let now = Instant::now();
                if now >= deadline {
                    return Err(HiqueError::Storage(format!(
                        "spill admission queue timed out after {CLAIM_TIMEOUT:?} \
                         ({} of {} claims outstanding)",
                        s.active, s.max_claims
                    )));
                }
                let (guard, _) = self
                    .released
                    .wait_timeout(s, (deadline - now).min(CANCEL_POLL))
                    .unwrap_or_else(|p| p.into_inner());
                s = guard;
            }
            s.active += 1;
            let id = s.next_id;
            s.next_id += 1;
            (id, denied)
        };
        let path = self.base.with_extension(format!("{id}.spill"));
        std::fs::remove_file(&path).ok();
        let disk = match DiskManager::open(&path) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                self.release_slot();
                return Err(e);
            }
        };
        let file = self.pool.register_file(disk);
        Ok((
            SpillNamespace {
                temp: Arc::clone(self),
                file,
                path,
                next_page: Mutex::new(0),
                guards: AtomicUsize::new(0),
            },
            denied,
        ))
    }

    /// Refuse-if-busy sanity check: spill state is per-claim now, so there
    /// is nothing to reset — but a caller asking to reset while claims are
    /// outstanding is making the exact mistake the old global `reset` made
    /// legal (invalidating live handles), so that is a typed error.
    pub fn reset(&self) -> Result<()> {
        let active = self.active_claims();
        if active > 0 {
            return Err(HiqueError::Storage(format!(
                "cannot reset spill space: {active} claim(s) outstanding"
            )));
        }
        Ok(())
    }

    fn release_slot(&self) {
        let mut s = self.lock_state();
        s.active -= 1;
        drop(s);
        self.released.notify_one();
    }
}

impl std::fmt::Debug for TempSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock_state();
        f.debug_struct("TempSpace")
            .field("base", &self.base)
            .field("active_claims", &s.active)
            .field("max_claims", &s.max_claims)
            .finish()
    }
}

/// One execution's private spill file, page-addressed through the shared
/// buffer pool.  Created by [`TempSpace::claim`]; dropping it discards the
/// file's frames (no write-back), deletes the file, and frees the admission
/// slot.
pub struct SpillNamespace {
    temp: Arc<TempSpace>,
    file: FileId,
    path: PathBuf,
    next_page: Mutex<usize>,
    /// Count of live [`SpillPageRef`] guards; resets refuse while > 0.
    guards: AtomicUsize,
}

impl SpillNamespace {
    /// Path of this namespace's spill file (for tests and cleanup checks).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of spill pages allocated so far in this namespace.
    pub fn allocated_pages(&self) -> usize {
        *self.next_page.lock()
    }

    /// Release every spill allocation of this namespace, restarting from
    /// page zero.  Outstanding [`SpillHandle`]s become dangling, so this
    /// refuses with a typed error while any page guard is live; handles the
    /// caller still intends to read must not be reset away either — the
    /// normal pattern is one namespace per execution, dropped at the end,
    /// with no reset at all.
    pub fn reset(&self) -> Result<()> {
        let live = self.guards.load(Ordering::Acquire);
        if live > 0 {
            return Err(HiqueError::Storage(format!(
                "cannot reset spill namespace: {live} page guard(s) live"
            )));
        }
        *self.next_page.lock() = 0;
        Ok(())
    }

    /// Write a packed record buffer into freshly allocated spill pages via
    /// the pool, returning the handle needed to reload it.
    ///
    /// Records never span pages (the NSM invariant every scan loop relies
    /// on); a record wider than a page's data area is a typed error.
    pub fn spill_records(&self, buf: &[u8], tuple_size: usize) -> Result<SpillHandle> {
        if tuple_size == 0 || tuple_size > PAGE_SIZE - PAGE_HEADER_SIZE {
            return Err(HiqueError::Storage(format!(
                "cannot spill records of width {tuple_size} into {PAGE_SIZE}-byte pages"
            )));
        }
        if !buf.len().is_multiple_of(tuple_size) {
            return Err(HiqueError::Storage(format!(
                "spill buffer of {} bytes is not a whole number of {tuple_size}-byte records",
                buf.len()
            )));
        }
        let records = buf.len() / tuple_size;
        let per_page = records_per_page(tuple_size);
        let pages = records.div_ceil(per_page);
        // Fault hook: a scheduled disk-full fires before any page is
        // allocated, so a failed spill leaves the namespace allocator
        // untouched.
        if let Some(plan) = self.temp.pool.fault_plan() {
            plan.before_spill_alloc(pages)?;
        }
        let start = {
            let mut next = self.next_page.lock();
            let start = *next;
            *next += pages;
            start
        };
        for (i, chunk) in buf.chunks(per_page * tuple_size).enumerate() {
            let mut page = Page::new(tuple_size)?;
            for record in chunk.chunks_exact(tuple_size) {
                let pushed = page.push_record(record)?;
                debug_assert!(pushed, "spill page sized to its record count");
            }
            self.temp
                .pool
                .write(PageId::new(self.file, start + i), page)?;
        }
        Ok(SpillHandle {
            start,
            pages,
            records,
            tuple_size,
        })
    }

    /// Pin-guard access to page `i` of a spilled range.  The returned guard
    /// keeps the frame pinned (LRU-safe) until dropped; when every frame is
    /// pinned the page is read uncached instead, so progress is guaranteed
    /// even on a capacity-1 pool.
    pub fn page_guard(&self, handle: &SpillHandle, i: usize) -> Result<SpillPageRef<'_>> {
        if i >= handle.pages {
            return Err(HiqueError::Storage(format!(
                "spill page {i} out of range ({} pages in handle)",
                handle.pages
            )));
        }
        let id = PageId::new(self.file, handle.start + i);
        let fetched = self.temp.pool.fetch_or_bypass(id)?;
        self.guards.fetch_add(1, Ordering::Acquire);
        match fetched {
            Fetched::Pinned(page) => Ok(SpillPageRef {
                page,
                pinned: Some((self.temp.pool.as_ref(), id)),
                guards: &self.guards,
            }),
            Fetched::Bypassed(page) => Ok(SpillPageRef {
                page,
                pinned: None,
                guards: &self.guards,
            }),
        }
    }

    /// Read a spilled buffer back into one packed byte vector, pinning each
    /// page just long enough to copy it out.
    pub fn reload(&self, handle: &SpillHandle) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(handle.records * handle.tuple_size);
        for i in 0..handle.pages {
            out.extend_from_slice(self.page_guard(handle, i)?.data());
        }
        if out.len() != handle.records * handle.tuple_size {
            return Err(HiqueError::Storage(format!(
                "spilled relation reloaded {} bytes, expected {}",
                out.len(),
                handle.records * handle.tuple_size
            )));
        }
        Ok(out)
    }
}

impl Drop for SpillNamespace {
    fn drop(&mut self) {
        // Guards borrow the namespace, so none can be live here; the
        // unregister therefore cannot fail on pinned frames.
        let _ = self.temp.pool.unregister_file(self.file);
        std::fs::remove_file(&self.path).ok();
        self.temp.release_slot();
    }
}

impl std::fmt::Debug for SpillNamespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillNamespace")
            .field("path", &self.path)
            .field("allocated_pages", &self.allocated_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn temp_file(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hique_temp_test_{}_{name}.spill",
            std::process::id()
        ));
        p
    }

    fn setup(name: &str, budget: usize) -> (Arc<TempSpace>, Arc<BufferPool>) {
        let path = temp_file(name);
        let pool = Arc::new(BufferPool::new(budget).unwrap());
        let space = Arc::new(TempSpace::create(Arc::clone(&pool), &path).unwrap());
        (space, pool)
    }

    fn packed(records: usize, width: usize) -> Vec<u8> {
        (0..records)
            .flat_map(|r| (0..width).map(move |b| ((r * 31 + b) % 251) as u8))
            .collect()
    }

    #[test]
    fn spill_and_reload_round_trips() {
        let (temp, _pool) = setup("roundtrip", 64);
        let (space, denied) = temp.claim().unwrap();
        assert!(!denied);
        let buf = packed(1000, 24);
        let handle = space.spill_records(&buf, 24).unwrap();
        assert_eq!(handle.records, 1000);
        assert_eq!(handle.pages, 1000usize.div_ceil((PAGE_SIZE - 8) / 24));
        assert_eq!(space.reload(&handle).unwrap(), buf);
        let path = space.path().to_path_buf();
        assert!(path.exists());
        drop(space);
        // Dropping the namespace deletes its file and frees the slot.
        assert!(!path.exists());
        assert_eq!(temp.active_claims(), 0);
    }

    #[test]
    fn tight_budget_forces_evictions_yet_reloads_identically() {
        let (temp, pool) = setup("tight", 2);
        let (space, _) = temp.claim().unwrap();
        let a = packed(500, 40);
        let b = packed(300, 16);
        let ha = space.spill_records(&a, 40).unwrap();
        let hb = space.spill_records(&b, 16).unwrap();
        assert!(ha.pages + hb.pages > 2, "buffers must exceed the budget");
        assert_eq!(space.reload(&ha).unwrap(), a);
        assert_eq!(space.reload(&hb).unwrap(), b);
        let stats = pool.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.pages_written > 0, "{stats:?}");
        assert!(stats.pages_read > 0, "{stats:?}");
        // Ranges do not overlap.
        assert!(hb.start >= ha.start + ha.pages);
        assert_eq!(space.allocated_pages(), ha.pages + hb.pages);
    }

    #[test]
    fn page_guards_walk_a_spilled_range_one_pin_at_a_time() {
        let (temp, pool) = setup("guards", 2);
        let (space, _) = temp.claim().unwrap();
        let buf = packed(600, 32);
        let handle = space.spill_records(&buf, 32).unwrap();
        assert!(handle.pages > 2, "range must exceed the pool budget");
        // Walk the range through guards: contents concatenate back to the
        // original buffer, and the pool never holds more than its capacity.
        let mut out = Vec::new();
        for i in 0..handle.pages {
            let guard = space.page_guard(&handle, i).unwrap();
            out.extend_from_slice(guard.data());
            assert!(pool.resident() <= pool.capacity());
        }
        assert_eq!(out, buf);
        // The high-water mark proves the walk stayed within the budget.
        assert!(pool.peak_resident() <= pool.capacity());
        assert!(pool.stats().evictions > 0);
        // Out-of-range page index is a typed error.
        assert!(matches!(
            space.page_guard(&handle, handle.pages),
            Err(HiqueError::Storage(_))
        ));
    }

    #[test]
    fn empty_and_invalid_spills() {
        let (temp, _pool) = setup("invalid", 4);
        let (space, _) = temp.claim().unwrap();
        // Empty buffer: a zero-page handle reloads to an empty buffer.
        let h = space.spill_records(&[], 8).unwrap();
        assert_eq!(h.pages, 0);
        assert_eq!(space.reload(&h).unwrap(), Vec::<u8>::new());
        // Oversized and zero-width records are typed errors.
        assert!(matches!(
            space.spill_records(&[0u8; PAGE_SIZE], PAGE_SIZE),
            Err(HiqueError::Storage(_))
        ));
        assert!(matches!(
            space.spill_records(&[], 0),
            Err(HiqueError::Storage(_))
        ));
        // A ragged buffer is rejected.
        assert!(matches!(
            space.spill_records(&[0u8; 10], 8),
            Err(HiqueError::Storage(_))
        ));
    }

    #[test]
    fn concurrent_claims_get_disjoint_namespaces() {
        // Two live claims spill simultaneously into separate files and both
        // reload their own data intact — the multi-tenant property the old
        // single-claim TempSpace could not provide.
        let (temp, _pool) = setup("tenants", 4);
        let (a, da) = temp.claim().unwrap();
        let (b, db) = temp.claim().unwrap();
        assert!(!da && !db, "cap is unlimited by default");
        assert_ne!(a.path(), b.path());
        assert_eq!(temp.active_claims(), 2);
        let abuf = packed(400, 24);
        let bbuf = packed(400, 24);
        let ha = a.spill_records(&abuf, 24).unwrap();
        let hb = b.spill_records(&bbuf, 24).unwrap();
        // Same page range in different namespaces: no interference.
        assert_eq!(ha.start, hb.start);
        assert_eq!(a.reload(&ha).unwrap(), abuf);
        assert_eq!(b.reload(&hb).unwrap(), bbuf);
    }

    #[test]
    fn admission_cap_queues_claims_and_reports_denial() {
        let (temp, _pool) = setup("admission", 4);
        temp.set_max_claims(1);
        let (a, denied_a) = temp.claim().unwrap();
        assert!(!denied_a);
        // A queued claim blocks until the holder drops, and reports that it
        // was initially denied.
        let t = {
            let temp = Arc::clone(&temp);
            std::thread::spawn(move || {
                let (ns, denied) = temp.claim().unwrap();
                let buf = packed(10, 8);
                let h = ns.spill_records(&buf, 8).unwrap();
                assert_eq!(ns.reload(&h).unwrap(), buf);
                denied
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(temp.active_claims(), 1);
        drop(a);
        assert!(t.join().unwrap(), "queued claim must report denial");
        assert_eq!(temp.active_claims(), 0);
    }

    #[test]
    fn poisoned_claim_lock_recovers_for_other_sessions() {
        // Satellite regression: a client thread that panics while holding
        // the claim-state lock poisons the std mutex; later sessions must
        // recover (the state is plain counters kept consistent by RAII)
        // instead of panicking on the poison forever.
        let (temp, _pool) = setup("poison", 4);
        let t = {
            let temp = Arc::clone(&temp);
            std::thread::spawn(move || {
                let _guard = temp.state.lock().unwrap();
                panic!("simulated client panic while holding the claim lock");
            })
        };
        assert!(t.join().is_err(), "the poisoning thread must panic");
        let (ns, denied) = temp.claim().unwrap();
        assert!(!denied);
        let buf = packed(10, 8);
        let h = ns.spill_records(&buf, 8).unwrap();
        assert_eq!(ns.reload(&h).unwrap(), buf);
        drop(ns);
        assert_eq!(temp.active_claims(), 0);
        temp.set_max_claims(2); // the poisoned lock serves every entry point
    }

    #[test]
    fn queued_claim_cancels_within_its_deadline() {
        let (temp, _pool) = setup("cancel_claim", 4);
        temp.set_max_claims(1);
        let (_hold, _) = temp.claim().unwrap();
        // A claim queued behind the held slot must observe its deadline in
        // one poll slice, far inside the 30s admission timeout.
        let cancel = CancelToken::with_deadline(Duration::from_millis(100));
        let started = Instant::now();
        let err = temp.claim_cancellable(&cancel).unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(temp.active_claims(), 1, "the cancelled claim took no slot");
    }

    #[test]
    fn pre_cancelled_claim_never_takes_a_slot() {
        let (temp, _pool) = setup("cancel_pre", 4);
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            temp.claim_cancellable(&cancel),
            Err(HiqueError::Cancelled(_))
        ));
        assert_eq!(temp.active_claims(), 0);
    }

    #[test]
    fn injected_disk_full_fails_spill_and_releases_cleanly() {
        let (temp, pool) = setup("disk_full", 8);
        pool.set_fault_plan(Some(Arc::new(FaultPlan::new().disk_full_on_alloc(2))));
        let (space, _) = temp.claim().unwrap();
        let buf = packed(100, 16);
        let h = space.spill_records(&buf, 16).unwrap();
        let err = space.spill_records(&buf, 16).unwrap_err();
        assert!(err.message().contains("no space left"), "{err}");
        // The failed allocation did not advance the allocator, and the
        // earlier spill is still readable.
        assert_eq!(space.allocated_pages(), h.pages);
        assert_eq!(space.reload(&h).unwrap(), buf);
        let path = space.path().to_path_buf();
        drop(space);
        assert!(!path.exists(), "spill file must be deleted on drop");
        assert_eq!(temp.active_claims(), 0);
        assert_eq!(pool.pinned_frames(), 0);
    }

    #[test]
    fn reset_refuses_while_claims_or_guards_outstanding() {
        let (temp, _pool) = setup("reset", 4);
        assert!(temp.reset().is_ok());
        let (space, _) = temp.claim().unwrap();
        // Factory-level reset refuses while any claim is outstanding.
        assert!(matches!(temp.reset(), Err(HiqueError::Storage(_))));
        let buf = packed(100, 16);
        let h = space.spill_records(&buf, 16).unwrap();
        {
            let _guard = space.page_guard(&h, 0).unwrap();
            // Namespace-level reset refuses while a page guard is live.
            assert!(matches!(space.reset(), Err(HiqueError::Storage(_))));
        }
        // Guard dropped: reset succeeds and restarts the allocator.
        space.reset().unwrap();
        assert_eq!(space.allocated_pages(), 0);
        drop(space);
        assert!(temp.reset().is_ok());
    }
}
