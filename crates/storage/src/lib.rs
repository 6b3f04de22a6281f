//! # hique-storage
//!
//! Storage layer for the HIQUE reproduction, mirroring the paper's choices:
//!
//! * the **N-ary Storage Model** with fixed-length records packed into
//!   4096-byte [`page::Page`]s (`num_tuples` header + record array, accessed
//!   as `data + t * tuple_size` exactly like Listing 1 of the paper);
//! * heap files ([`heap::TableHeap`]) holding one table each;
//! * an LRU [`buffer::BufferPool`] over a [`disk::DiskManager`] for
//!   file-backed tables (the reported experiments run with memory-resident
//!   data, as in the paper, but the subsystem is a real component);
//! * a system [`catalog::Catalog`] mapping table names to schemas, heaps and
//!   basic statistics.

pub mod buffer;
pub mod catalog;
pub mod disk;
pub mod fault;
pub mod heap;
pub mod page;
pub mod temp;

pub use buffer::{BufferPool, BufferPoolStats, FileId, PageId, PeakWindow};
pub use catalog::{Catalog, StorageRuntime, TableInfo};
pub use disk::DiskManager;
pub use fault::FaultPlan;
pub use heap::{PageRef, TableHeap};
pub use page::{records_per_page, Page, PAGE_HEADER_SIZE, PAGE_SIZE};
pub use temp::{SpillHandle, SpillNamespace, SpillPageRef, TempSpace};
