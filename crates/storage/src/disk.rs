//! Page-granular disk manager.
//!
//! Each table may be persisted to its own file ("each table resides in its
//! own file on disk" in the paper).  The disk manager reads and writes whole
//! [`PAGE_SIZE`] pages by page number.  It is used by the [`crate::buffer`]
//! module and by the catalog's persistence helpers; the reproduced
//! experiments run on memory-resident heaps, as in the paper.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use std::sync::Arc;

use hique_types::{HiqueError, Result};
use parking_lot::Mutex;

use crate::fault::FaultPlan;
use crate::page::{Page, PAGE_SIZE};

/// Reads and writes 4 KiB pages of a single file.  Every transfer is one
/// positioned `pread`/`pwrite` of a whole page, so concurrent readers share
/// the file without a lock or a seek.
pub struct DiskManager {
    path: PathBuf,
    file: File,
    /// Optional fault-injection schedule; checked before every page read and
    /// write so scheduled failures surface exactly where real ones would.
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl DiskManager {
    /// Open (creating if necessary) the file backing a table.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| HiqueError::Storage(format!("open {}: {e}", path.display())))?;
        Ok(DiskManager {
            path,
            file,
            faults: Mutex::new(None),
        })
    }

    /// Install (or clear, with `None`) a fault-injection schedule.  Usually
    /// called through [`crate::BufferPool::set_fault_plan`], which shares one
    /// plan across every registered file.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock() = plan;
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of whole pages currently stored in the file.
    pub fn num_pages(&self) -> Result<usize> {
        let len = self
            .file
            .metadata()
            .map_err(|e| HiqueError::Storage(format!("stat: {e}")))?
            .len() as usize;
        Ok(len / PAGE_SIZE)
    }

    /// Write `page` as page number `page_no` (extending the file if needed).
    pub fn write_page(&self, page_no: usize, page: &Page) -> Result<()> {
        if let Some(plan) = self.faults.lock().clone() {
            plan.before_write(&self.path, page_no)?;
        }
        self.file
            .write_all_at(page.as_bytes(), (page_no * PAGE_SIZE) as u64)
            .map_err(|e| HiqueError::Storage(format!("write page {page_no}: {e}")))
    }

    /// Read page number `page_no` into a fresh image.
    pub fn read_page(&self, page_no: usize) -> Result<Page> {
        let mut page = Page::blank();
        self.read_into(page_no, &mut page)?;
        Ok(page)
    }

    /// Read page number `page_no` over `page`'s image — the buffer pool's
    /// miss path, which passes a free frame image nothing else holds.
    pub(crate) fn read_into(&self, page_no: usize, page: &mut Page) -> Result<()> {
        if let Some(plan) = self.faults.lock().clone() {
            plan.before_read(&self.path, page_no)?;
        }
        self.file
            .read_exact_at(page.bytes_mut(), (page_no * PAGE_SIZE) as u64)
            .map_err(|e| HiqueError::Storage(format!("read page {page_no}: {e}")))?;
        page.validate()
    }

    /// Flush OS buffers to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| HiqueError::Storage(format!("sync: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hique_disk_test_{}_{name}.tbl", std::process::id()));
        p
    }

    #[test]
    fn write_read_round_trip() {
        let path = temp_path("rw");
        let dm = DiskManager::open(&path).unwrap();
        let mut p0 = Page::new(8).unwrap();
        p0.push_record(&42u64.to_le_bytes()).unwrap();
        let mut p1 = Page::new(8).unwrap();
        p1.push_record(&7u64.to_le_bytes()).unwrap();
        p1.push_record(&9u64.to_le_bytes()).unwrap();
        dm.write_page(0, &p0).unwrap();
        dm.write_page(1, &p1).unwrap();
        dm.sync().unwrap();
        assert_eq!(dm.num_pages().unwrap(), 2);
        let r0 = dm.read_page(0).unwrap();
        let r1 = dm.read_page(1).unwrap();
        assert_eq!(r0.num_tuples(), 1);
        assert_eq!(r0.record(0), &42u64.to_le_bytes());
        assert_eq!(r1.num_tuples(), 2);
        assert_eq!(r1.record(1), &9u64.to_le_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reading_missing_page_fails() {
        let path = temp_path("missing");
        let dm = DiskManager::open(&path).unwrap();
        assert!(dm.read_page(3).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_faults_surface_as_typed_errors_and_clear() {
        let path = temp_path("faults");
        let dm = DiskManager::open(&path).unwrap();
        let mut p = Page::new(8).unwrap();
        p.push_record(&5u64.to_le_bytes()).unwrap();
        dm.write_page(0, &p).unwrap();
        let plan = Arc::new(FaultPlan::new().fail_nth_read(2).fail_nth_write(1));
        dm.set_fault_plan(Some(Arc::clone(&plan)));
        // Scheduled write fault fires first, and leaves the file intact.
        let err = dm.write_page(0, &p).unwrap_err();
        assert!(err.message().contains("injected fault"), "{err}");
        assert!(dm.read_page(0).is_ok()); // read 1 passes
        assert!(dm.read_page(0).is_err()); // read 2 injected
        assert_eq!(plan.injected(), 2);
        // Clearing the plan restores normal operation.
        dm.set_fault_plan(None);
        assert_eq!(dm.read_page(0).unwrap().record(0), &5u64.to_le_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pages_can_be_overwritten() {
        let path = temp_path("overwrite");
        let dm = DiskManager::open(&path).unwrap();
        let mut p = Page::new(8).unwrap();
        p.push_record(&1u64.to_le_bytes()).unwrap();
        dm.write_page(0, &p).unwrap();
        let mut p2 = Page::new(8).unwrap();
        p2.push_record(&2u64.to_le_bytes()).unwrap();
        dm.write_page(0, &p2).unwrap();
        assert_eq!(dm.num_pages().unwrap(), 1);
        assert_eq!(dm.read_page(0).unwrap().record(0), &2u64.to_le_bytes());
        std::fs::remove_file(&path).ok();
    }
}
