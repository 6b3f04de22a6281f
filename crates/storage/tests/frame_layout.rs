//! The first scan of a paged catalog lays its pages out in memory as one
//! ascending run, one page image apart, whatever else the process allocates
//! between fetches — the order the hardware prefetchers follow when staging
//! walks the pages again.  A pool that allocated a fresh image per miss put
//! each page wherever the allocator had room, and with ≈ 4.5 KiB blocks
//! allocated between fetches (what the DSM decomposition does while it
//! scans) consecutive pages landed ≈ 8.6 KiB apart.
//!
//! Its own test binary: the allocator state it measures is this process's.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_storage::{Catalog, PAGE_SIZE};
use hique_types::{Column, DataType, Row, Schema, Value};

/// An image, its reference counts and the allocator's header.
const IMAGE_STRIDE_MAX: usize = PAGE_SIZE + 64;

#[test]
fn a_first_scan_lays_pages_out_one_image_apart() {
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("pad", DataType::Char(120)),
    ]);
    catalog.create_table("t", schema).unwrap();
    let heap = &mut catalog.table_mut("t").unwrap().heap;
    let mut k = 0i64;
    while heap.num_pages() < 300 {
        heap.append_row(&Row::new(vec![Value::Int64(k), Value::Str("x".into())]))
            .unwrap();
        k += 1;
    }
    catalog.spill_to_disk(512).unwrap();

    let heap = &catalog.table("t").unwrap().heap;
    let mut churn: Vec<Vec<u8>> = Vec::new();
    let mut addrs = Vec::with_capacity(heap.num_pages());
    for p in 0..heap.num_pages() {
        let page = heap.page_guard(p).unwrap();
        addrs.push(page.data().as_ptr() as usize);
        drop(page);
        // Column buffers growing between fetches: one block kept, every
        // other one freed again.
        churn.push(vec![p as u8; 4608]);
        if p % 2 == 1 {
            churn.swap_remove(churn.len() - 2);
        }
    }
    let stride = addrs[1].wrapping_sub(addrs[0]);
    assert!(
        (PAGE_SIZE..=IMAGE_STRIDE_MAX).contains(&stride),
        "pages 0 and 1 are {stride} bytes apart"
    );
    for (p, pair) in addrs.windows(2).enumerate() {
        assert_eq!(
            pair[1].wrapping_sub(pair[0]),
            stride,
            "pages {p} and {} are not one image apart",
            p + 1
        );
    }
    assert_eq!(catalog.buffer_pool().unwrap().images(), addrs.len());
}
