//! A direct probe of `BufferPool::fetch`/`unpin` on a paged copy of
//! `lineitem`: what a hit costs, what a miss costs, and what a second
//! thread on the same pool does to a hit.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hique_storage::{BufferPool, DiskManager, Page, PageId};

/// Pages of `lineitem` copied into the probe's file.
pub const FILE_PAGES: usize = 2048;
/// Frames of the pool the miss probe cycles the file through — the
/// server's default budget.
const SMALL_POOL: usize = 64;
const HIT_OPS: usize = 200_000;

fn storage(e: hique_types::HiqueError) -> String {
    format!("pool probe: {e}")
}

/// `ops` fetch/unpin pairs walking the file's pages in order; ns per pair.
fn walk(pool: &BufferPool, file: u32, pages: usize, ops: usize) -> Result<f64, String> {
    let begin = Instant::now();
    for i in 0..ops {
        let id = PageId::new(file, i % pages);
        std::hint::black_box(pool.fetch(id).map_err(storage)?);
        pool.unpin(id).map_err(storage)?;
    }
    Ok(begin.elapsed().as_secs_f64() * 1e9 / ops as f64)
}

pub fn pool_probe(pages: &[Page], scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    if pages.len() <= SMALL_POOL {
        return Err(format!(
            "pool probe: lineitem has only {} pages",
            pages.len()
        ));
    }
    let disk = Arc::new(DiskManager::open(scratch.join("probe.tbl")).map_err(storage)?);
    for (i, page) in pages.iter().enumerate() {
        disk.write_page(i, page).map_err(storage)?;
    }

    // Hits: a pool that holds the whole file, touched once.
    let pool = BufferPool::new(pages.len()).map_err(storage)?;
    let file = pool.register_file(Arc::clone(&disk));
    walk(&pool, file, pages.len(), pages.len())?;
    let hit_ns = walk(&pool, file, pages.len(), HIT_OPS)?;
    let stats = pool.stats();
    if (stats.hits, stats.misses, stats.evictions) != (HIT_OPS as u64, pages.len() as u64, 0) {
        return Err(format!("pool probe: hit walk counted {stats:?}"));
    }

    // The same walk from two threads at once on the same pool.
    let barrier = Barrier::new(2);
    let both: Vec<Result<f64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    walk(&pool, file, pages.len(), HIT_OPS)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let mut hit_ns_2t = 0.0;
    for ns in both {
        hit_ns_2t += ns? / 2.0;
    }

    // Misses: the file cycled through a pool 1/32 its size, so LRU evicts
    // every page before its next use.
    let small = BufferPool::new(SMALL_POOL).map_err(storage)?;
    let file = small.register_file(disk);
    let ops = 2 * pages.len();
    let miss_ns = walk(&small, file, pages.len(), ops)?;
    let stats = small.stats();
    if (stats.hits, stats.misses, stats.evictions) != (0, ops as u64, (ops - SMALL_POOL) as u64) {
        return Err(format!("pool probe: miss walk counted {stats:?}"));
    }

    Ok(vec![
        ("storage.fetch_hit_ns", hit_ns),
        ("storage.fetch_miss_us", miss_ns / 1e3),
        ("storage.fetch_hit_ns_2t", hit_ns_2t),
        ("storage.contention_ratio_2t", hit_ns_2t / hit_ns),
    ])
}
