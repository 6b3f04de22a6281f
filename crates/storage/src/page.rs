//! Fixed-size NSM pages of fixed-length records.
//!
//! A page is 4096 bytes: a small header holding the record count and record
//! width, followed by a packed array of records.  Record `t` lives at
//! `data_start + t * tuple_size`, which is what lets generated code walk a
//! page with pure pointer arithmetic (paper, Listing 1).

use std::sync::Arc;

use hique_types::{HiqueError, Result};

/// Physical page size in bytes (the paper uses 4096-byte pages).
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved for the page header (`num_tuples: u32`, `tuple_size: u32`).
pub const PAGE_HEADER_SIZE: usize = 8;

/// Records of `tuple_size` bytes that fit on one page — the single source
/// of the page-capacity formula for [`Page`], the paged heap's append path
/// and the temporary-spill writer.
#[inline]
pub fn records_per_page(tuple_size: usize) -> usize {
    (PAGE_SIZE - PAGE_HEADER_SIZE) / tuple_size.max(1)
}

/// A fixed-size page of fixed-length records.
///
/// The backing buffer is always exactly [`PAGE_SIZE`] bytes so pages can be
/// written to and read from disk verbatim.
///
/// A `Page` is a value: the image sits behind a reference count, `clone`
/// bumps the count, and the mutators ([`Page::push_record`],
/// [`Page::overwrite_record`]) copy the image first when it is shared
/// (copy-on-write).  That is what lets the buffer pool hand a frame's page
/// to any number of readers without copying 4 KiB per fetch, while a write
/// after the hand-out never alters what a reader already holds.
#[derive(Clone)]
pub struct Page {
    buf: Arc<[u8; PAGE_SIZE]>,
}

impl Page {
    /// Create an empty page for records of `tuple_size` bytes.
    ///
    /// `tuple_size` must be non-zero and small enough for at least one
    /// record to fit.
    pub fn new(tuple_size: usize) -> Result<Self> {
        if tuple_size == 0 || tuple_size > PAGE_SIZE - PAGE_HEADER_SIZE {
            return Err(HiqueError::Storage(format!(
                "invalid tuple size {tuple_size} for {PAGE_SIZE}-byte pages"
            )));
        }
        let mut buf = Arc::new([0u8; PAGE_SIZE]);
        Arc::make_mut(&mut buf)[4..8].copy_from_slice(&(tuple_size as u32).to_le_bytes());
        Ok(Page { buf })
    }

    /// A zeroed image for the buffer pool's frame set.  It is not a valid
    /// page until a disk read or a copy fills it ([`Page::validate`]).
    pub(crate) fn blank() -> Self {
        Page {
            buf: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Address of the image: the buffer pool hands out its free images
    /// lowest address first.
    pub(crate) fn addr(&self) -> usize {
        self.buf.as_ptr() as usize
    }

    /// True while another handle shares the image.
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(&self.buf) > 1
    }

    /// The whole image for overwriting (a disk read, a copy into a pool
    /// image); copies it first when it is shared, like the mutators.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        Arc::make_mut(&mut self.buf)
    }

    /// Check the header of an image filled from raw bytes.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.tuple_size() == 0 {
            return Err(HiqueError::Storage("page image has zero tuple size".into()));
        }
        Ok(())
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..]
    }

    /// Number of records currently stored.
    #[inline(always)]
    #[expect(clippy::unwrap_used, reason = "a 4-byte slice converts to [u8; 4]")]
    pub fn num_tuples(&self) -> usize {
        u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize
    }

    /// Width in bytes of every record on this page.
    #[inline(always)]
    #[expect(clippy::unwrap_used, reason = "a 4-byte slice converts to [u8; 4]")]
    pub fn tuple_size(&self) -> usize {
        u32::from_le_bytes(self.buf[4..8].try_into().unwrap()) as usize
    }

    /// Maximum number of records a page of this record width can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        records_per_page(self.tuple_size())
    }

    /// True when no further record fits.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.num_tuples() >= self.capacity()
    }

    /// Append a record; returns `false` (leaving the page unchanged) when
    /// the page is full.
    pub fn push_record(&mut self, record: &[u8]) -> Result<bool> {
        let ts = self.tuple_size();
        if record.len() != ts {
            return Err(HiqueError::Storage(format!(
                "record width {} does not match page tuple size {ts}",
                record.len()
            )));
        }
        if self.is_full() {
            return Ok(false);
        }
        let n = self.num_tuples();
        let off = PAGE_HEADER_SIZE + n * ts;
        let buf = Arc::make_mut(&mut self.buf);
        buf[off..off + ts].copy_from_slice(record);
        buf[0..4].copy_from_slice(&((n + 1) as u32).to_le_bytes());
        Ok(true)
    }

    /// Borrow record `t`.
    ///
    /// # Panics
    /// Panics if `t >= num_tuples()` (callers iterate `0..num_tuples()`).
    #[inline(always)]
    pub fn record(&self, t: usize) -> &[u8] {
        debug_assert!(t < self.num_tuples());
        let ts = self.tuple_size();
        let off = PAGE_HEADER_SIZE + t * ts;
        &self.buf[off..off + ts]
    }

    /// The packed record area (`num_tuples * tuple_size` bytes), the array
    /// the generated kernels iterate over directly.
    #[inline(always)]
    pub fn data(&self) -> &[u8] {
        let ts = self.tuple_size();
        &self.buf[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + self.num_tuples() * ts]
    }

    /// Iterator over all records in the page.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.num_tuples()).map(move |t| self.record(t))
    }

    /// Overwrite record `t` in place (used by temporary staging tables).
    pub fn overwrite_record(&mut self, t: usize, record: &[u8]) -> Result<()> {
        let ts = self.tuple_size();
        if record.len() != ts {
            return Err(HiqueError::Storage(
                "record width mismatch in overwrite".into(),
            ));
        }
        if t >= self.num_tuples() {
            return Err(HiqueError::Storage(format!(
                "record index {t} out of bounds ({} tuples)",
                self.num_tuples()
            )));
        }
        let off = PAGE_HEADER_SIZE + t * ts;
        Arc::make_mut(&mut self.buf)[off..off + ts].copy_from_slice(record);
        Ok(())
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("tuple_size", &self.tuple_size())
            .field("num_tuples", &self.num_tuples())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_empty_with_expected_capacity() {
        let p = Page::new(72).unwrap();
        assert_eq!(p.num_tuples(), 0);
        assert_eq!(p.tuple_size(), 72);
        assert_eq!(p.capacity(), (PAGE_SIZE - PAGE_HEADER_SIZE) / 72);
        assert!(!p.is_full());
    }

    #[test]
    fn invalid_tuple_sizes_are_rejected() {
        assert!(Page::new(0).is_err());
        assert!(Page::new(PAGE_SIZE).is_err());
        assert!(Page::new(PAGE_SIZE - PAGE_HEADER_SIZE).is_ok());
    }

    #[test]
    fn push_and_read_records() {
        let mut p = Page::new(8).unwrap();
        for i in 0..10u64 {
            assert!(p.push_record(&i.to_le_bytes()).unwrap());
        }
        assert_eq!(p.num_tuples(), 10);
        for i in 0..10u64 {
            assert_eq!(p.record(i as usize), &i.to_le_bytes());
        }
        assert_eq!(p.records().count(), 10);
        assert_eq!(p.data().len(), 80);
    }

    #[test]
    fn page_fills_up_and_rejects_when_full() {
        let mut p = Page::new(1024).unwrap();
        assert_eq!(p.capacity(), 3);
        let rec = vec![7u8; 1024];
        assert!(p.push_record(&rec).unwrap());
        assert!(p.push_record(&rec).unwrap());
        assert!(p.push_record(&rec).unwrap());
        assert!(p.is_full());
        assert!(!p.push_record(&rec).unwrap());
        assert_eq!(p.num_tuples(), 3);
    }

    #[test]
    fn record_width_mismatch_is_an_error() {
        let mut p = Page::new(8).unwrap();
        assert!(p.push_record(&[1, 2, 3]).is_err());
    }

    #[test]
    fn round_trip_through_bytes() {
        let mut p = Page::new(16).unwrap();
        p.push_record(&[9u8; 16]).unwrap();
        let mut copy = Page::blank();
        assert!(copy.validate().is_err(), "a blank image is not a page");
        copy.bytes_mut().copy_from_slice(p.as_bytes());
        copy.validate().unwrap();
        assert_eq!(copy.num_tuples(), 1);
        assert_eq!(copy.record(0), &[9u8; 16]);
        // Overwriting a shared image copies it first.
        let held = copy.clone();
        assert!(copy.is_shared());
        copy.bytes_mut()[PAGE_HEADER_SIZE] = 1;
        assert_ne!(copy.addr(), held.addr());
        assert_eq!(held.record(0), &[9u8; 16]);
    }

    #[test]
    fn clones_share_the_image_until_one_of_them_writes() {
        let mut original = Page::new(4).unwrap();
        original.push_record(&[1, 1, 1, 1]).unwrap();
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.buf, &clone.buf), "clone is a handle");
        // Either mutator on the clone leaves the original's image alone.
        clone.push_record(&[2, 2, 2, 2]).unwrap();
        clone.overwrite_record(0, &[9, 9, 9, 9]).unwrap();
        assert_eq!(original.num_tuples(), 1);
        assert_eq!(original.record(0), &[1, 1, 1, 1]);
        assert_eq!(clone.num_tuples(), 2);
        assert_eq!(clone.record(0), &[9, 9, 9, 9]);
        // ...and a write to the original does not reach the clone.
        original.overwrite_record(0, &[5, 5, 5, 5]).unwrap();
        assert_eq!(clone.record(0), &[9, 9, 9, 9]);
        // A page nobody shares is written in place.
        let before = Arc::as_ptr(&clone.buf);
        clone.push_record(&[3, 3, 3, 3]).unwrap();
        assert_eq!(Arc::as_ptr(&clone.buf), before);
        // A rejected write does not take a private copy either.
        let shared = clone.clone();
        assert!(clone.push_record(&[0]).is_err());
        assert!(Arc::ptr_eq(&shared.buf, &clone.buf));
    }

    #[test]
    fn overwrite_record_in_place() {
        let mut p = Page::new(4).unwrap();
        p.push_record(&[1, 1, 1, 1]).unwrap();
        p.push_record(&[2, 2, 2, 2]).unwrap();
        p.overwrite_record(1, &[9, 9, 9, 9]).unwrap();
        assert_eq!(p.record(1), &[9, 9, 9, 9]);
        assert!(p.overwrite_record(5, &[0, 0, 0, 0]).is_err());
        assert!(p.overwrite_record(0, &[0]).is_err());
    }
}
