//! System catalog: table name → schema, heap, statistics.
//!
//! The paper's storage manager "is responsible for maintaining information
//! on table/file associations and schemata"; the optimizer additionally
//! needs cardinalities and per-column distinct-value counts to pick join
//! orders, join algorithms, and between map/hybrid/sort aggregation.
//! `ANALYZE`-style statistics collection lives here.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hique_types::tuple::read_value;
use hique_types::{ColumnDistribution, HiqueError, Result, Schema, Value};

use crate::buffer::{BufferPool, BufferPoolStats};
use crate::disk::DiskManager;
use crate::heap::TableHeap;
use crate::temp::TempSpace;

/// A table registered in the catalog.
#[derive(Debug)]
pub struct TableInfo {
    /// Table name (lower-cased at registration).
    pub name: String,
    /// Record layout.
    pub schema: Schema,
    /// The table's data.
    pub heap: TableHeap,
    /// Per-column value distributions (MCV list + equi-depth histogram,
    /// from which distinct counts and bounds derive), aligned with
    /// `schema.columns()`; empty until [`Catalog::analyze_table`] runs.
    pub column_stats: Vec<ColumnDistribution>,
}

impl TableInfo {
    /// Number of rows in the table.
    pub fn row_count(&self) -> usize {
        self.heap.num_tuples()
    }
}

/// The paged-execution runtime of a catalog: the shared LRU pool, the
/// temporary-spill space, and the on-disk directory holding both.  Created
/// by [`Catalog::spill_to_disk`]; dropping it removes the spill directory.
#[derive(Debug)]
pub struct StorageRuntime {
    pool: Arc<BufferPool>,
    temp: Arc<TempSpace>,
    dir: PathBuf,
    owns_dir: bool,
}

impl StorageRuntime {
    /// The shared buffer pool serving every paged heap of the catalog.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The spill space for staged intermediates.
    pub fn temp(&self) -> &Arc<TempSpace> {
        &self.temp
    }

    /// Directory holding the table files and the spill file.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Install (or clear) a fault-injection schedule across the whole
    /// runtime: every registered base-table file, every future per-claim
    /// spill file, and the spill allocator all share one plan (and one set
    /// of operation counters).
    pub fn install_fault_plan(&self, plan: Option<Arc<crate::fault::FaultPlan>>) {
        self.pool.set_fault_plan(plan);
    }
}

impl Drop for StorageRuntime {
    fn drop(&mut self) {
        if self.owns_dir {
            // Best effort: the files are per-process temporaries.
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }
}

/// The system catalog.
///
/// Tables are owned by the catalog; engines borrow heaps for the duration of
/// a query, which matches the single-query-at-a-time experimental setup of
/// the paper (concurrency control is orthogonal to holistic evaluation and
/// out of scope, as the paper argues).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableInfo>,
    storage: Option<StorageRuntime>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a new table with an empty heap.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(HiqueError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let heap = TableHeap::new(schema.clone())?;
        self.tables.insert(
            key.clone(),
            TableInfo {
                name: key,
                schema,
                heap,
                column_stats: Vec::new(),
            },
        );
        Ok(())
    }

    /// Register a table with pre-populated data.
    pub fn register_table(&mut self, name: &str, heap: TableHeap) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(HiqueError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        self.tables.insert(
            key.clone(),
            TableInfo {
                name: key,
                schema: heap.schema().clone(),
                heap,
                column_stats: Vec::new(),
            },
        );
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        self.tables
            .remove(&key)
            .map(|_| ())
            .ok_or_else(|| HiqueError::Catalog(format!("unknown table '{name}'")))
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&TableInfo> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| HiqueError::Catalog(format!("unknown table '{name}'")))
    }

    /// Look up a table mutably (for loading data).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableInfo> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| HiqueError::Catalog(format!("unknown table '{name}'")))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Move every table's pages into per-table disk files served through a
    /// shared LRU [`BufferPool`] of `memory_budget_pages` frames, created in
    /// a fresh per-process temporary directory (removed when the catalog is
    /// dropped).  After this call, scans in every engine pin pool frames,
    /// pages evict and reload under budget pressure, and the executor can
    /// spill staged intermediates into the shared [`TempSpace`].
    pub fn spill_to_disk(&mut self, memory_budget_pages: usize) -> Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "hique_spill_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        self.spill_to_disk_in(&dir, memory_budget_pages, true)
    }

    /// [`Catalog::spill_to_disk`] into an explicit directory.  When
    /// `owns_dir` is true the directory is removed on drop.
    pub fn spill_to_disk_in(
        &mut self,
        dir: impl AsRef<Path>,
        memory_budget_pages: usize,
        owns_dir: bool,
    ) -> Result<()> {
        if self.storage.is_some() {
            return Err(HiqueError::Storage(
                "catalog is already backed by a buffer pool".into(),
            ));
        }
        let pool = Arc::new(BufferPool::new(memory_budget_pages)?);
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| HiqueError::Storage(format!("create spill dir {}: {e}", dir.display())))?;
        // Best-effort cleanup of a directory we created, so a failed spill
        // leaves neither stray files nor a half-paged catalog behind.
        let cleanup = |dir: &Path| {
            if owns_dir {
                std::fs::remove_dir_all(dir).ok();
            }
        };

        // Phase one (fallible, catalog untouched): write every table's pages
        // into its file and create the spill space.  An I/O failure here —
        // disk full, permissions — aborts with the catalog still fully
        // memory-resident instead of stranded half-paged.
        let mut disks: Vec<(String, Arc<DiskManager>)> = Vec::with_capacity(self.tables.len());
        for (name, info) in self.tables.iter() {
            let staged = DiskManager::open(dir.join(format!("{name}.tbl")))
                .map(Arc::new)
                .and_then(|disk| {
                    info.heap.write_pages_to(&disk)?;
                    Ok(disk)
                });
            match staged {
                Ok(disk) => disks.push((name.clone(), disk)),
                Err(e) => {
                    cleanup(&dir);
                    return Err(e);
                }
            }
        }
        let temp = match TempSpace::create(Arc::clone(&pool), dir.join("temp.spill")) {
            Ok(temp) => Arc::new(temp),
            Err(e) => {
                cleanup(&dir);
                return Err(e);
            }
        };

        // The pool's frames are allocated now, while the memory-resident
        // pages are still alive: the images then come from one fresh,
        // ascending run of the heap instead of the holes those pages leave,
        // and whatever runs before the first scan (the DSM decomposition)
        // cannot interleave its allocations with them.
        pool.reserve(self.tables.values().map(|t| t.heap.num_pages()).sum());

        // Phase two (infallible swaps): adopt the files written above.
        for (name, disk) in disks {
            #[expect(
                clippy::expect_used,
                reason = "two-phase rebuild: `disks` was built from this same map in phase one, and `self` stays mutably borrowed, so no table was dropped in between"
            )]
            self.tables
                .get_mut(&name)
                .expect("table existed in phase one")
                .heap
                .adopt_paged(&pool, disk)?;
        }
        self.storage = Some(StorageRuntime {
            pool,
            temp,
            dir,
            owns_dir,
        });
        Ok(())
    }

    /// The paged-execution runtime, when [`Catalog::spill_to_disk`] ran.
    pub fn storage(&self) -> Option<&StorageRuntime> {
        self.storage.as_ref()
    }

    /// The shared buffer pool, when the catalog runs in paged mode.
    pub fn buffer_pool(&self) -> Option<&Arc<BufferPool>> {
        self.storage.as_ref().map(|s| &s.pool)
    }

    /// Snapshot of the pool counters (zeros for a memory-resident catalog).
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.storage
            .as_ref()
            .map(|s| s.pool.stats())
            .unwrap_or_default()
    }

    /// Gather per-column statistics — distinct counts, min/max bounds, a
    /// most-common-values list and an equi-depth histogram — replacing any
    /// previous statistics.  A table analyzed while empty still gets one
    /// (empty) [`ColumnDistribution`] per column, which is how the optimizer tells
    /// "known to be empty" apart from "never analyzed".
    ///
    /// Columns are processed one at a time: each pass materializes and sorts
    /// a single column's values, so peak memory is one column, not the whole
    /// table.
    pub fn analyze_table(&mut self, name: &str) -> Result<()> {
        let info = self.table_mut(name)?;
        let schema = info.schema.clone();
        let mut stats = Vec::with_capacity(schema.len());
        for c in 0..schema.len() {
            let mut values: Vec<Value> = Vec::with_capacity(info.heap.num_tuples());
            info.heap
                .for_each_record(|record| values.push(read_value(record, &schema, c)))?;
            values.sort_unstable_by(|a, b| a.total_cmp(b));
            stats.push(ColumnDistribution::from_sorted(&values));
        }
        info.column_stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int32),
            Column::new("grp", DataType::Int32),
            Column::new("name", DataType::Char(8)),
        ])
    }

    fn populate(cat: &mut Catalog, n: i32) {
        cat.create_table("t", schema()).unwrap();
        let info = cat.table_mut("t").unwrap();
        for i in 0..n {
            info.heap
                .append_row(&Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 3),
                    Value::Str(format!("n{}", i % 2)),
                ]))
                .unwrap();
        }
    }

    #[test]
    fn create_lookup_drop() {
        let mut cat = Catalog::new();
        cat.create_table("Orders", schema()).unwrap();
        assert!(cat.has_table("orders"));
        assert!(cat.has_table("ORDERS"));
        assert!(cat.create_table("orders", schema()).is_err());
        assert_eq!(cat.table_names(), vec!["orders"]);
        assert_eq!(cat.table("orders").unwrap().row_count(), 0);
        cat.drop_table("orders").unwrap();
        assert!(!cat.has_table("orders"));
        assert!(cat.drop_table("orders").is_err());
        assert!(cat.table("orders").is_err());
    }

    #[test]
    fn register_existing_heap() {
        let mut cat = Catalog::new();
        let heap = TableHeap::from_rows(
            schema(),
            (0..5).map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(0),
                    Value::Str("x".into()),
                ])
            }),
        )
        .unwrap();
        cat.register_table("pre", heap).unwrap();
        assert_eq!(cat.table("pre").unwrap().row_count(), 5);
        let heap2 = TableHeap::new(schema()).unwrap();
        assert!(cat.register_table("pre", heap2).is_err());
    }

    #[test]
    fn analyze_collects_distincts_and_bounds() {
        let mut cat = Catalog::new();
        populate(&mut cat, 30);
        cat.analyze_table("t").unwrap();
        let info = cat.table("t").unwrap();
        assert_eq!(info.column_stats[0].distinct, 30);
        assert_eq!(info.column_stats[1].distinct, 3);
        assert_eq!(info.column_stats[2].distinct, 2);
        assert_eq!(info.column_stats[0].min(), Some(&Value::Int32(0)));
        assert_eq!(info.column_stats[0].max(), Some(&Value::Int32(29)));
    }

    #[test]
    fn analyze_builds_distributions() {
        let mut cat = Catalog::new();
        populate(&mut cat, 3000);
        cat.analyze_table("t").unwrap();
        let info = cat.table("t").unwrap();
        // Wide unique column: histogram form, no MCVs (uniform).
        let id = &info.column_stats[0];
        assert_eq!(id.rows, 3000);
        assert_eq!(id.distinct, 3000);
        assert!(id.mcv.is_empty());
        assert!(!id.buckets.is_empty());
        let rows_covered: usize = id.buckets.iter().map(|b| b.rows).sum();
        assert_eq!(rows_covered, 3000);
        // Low-cardinality columns: exact MCV lists, no histogram.
        let grp = &info.column_stats[1];
        assert_eq!(grp.distinct, 3);
        assert_eq!(grp.mcv.len(), 3);
        assert!(grp.buckets.is_empty());
        assert_eq!(grp.eq_fraction(&Value::Int32(0)), 1000.0 / 3000.0);
        let name = &info.column_stats[2];
        assert_eq!(name.mcv.len(), 2);
        assert_eq!(name.eq_fraction(&Value::Str("n0".into())), 0.5);
    }

    #[test]
    fn analyze_empty_table_marks_columns_analyzed() {
        let mut cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        cat.analyze_table("t").unwrap();
        let info = cat.table("t").unwrap();
        assert_eq!(info.column_stats.len(), 3);
        for cs in &info.column_stats {
            assert_eq!(cs.distinct, 0);
            assert!(cs.min().is_none() && cs.max().is_none());
            assert_eq!(cs.rows, 0);
        }
    }

    #[test]
    fn reanalyze_after_growth_refreshes_distributions() {
        let mut cat = Catalog::new();
        populate(&mut cat, 10);
        cat.analyze_table("t").unwrap();
        assert_eq!(cat.table("t").unwrap().column_stats[0].distinct, 10);
        assert!(cat.table("t").unwrap().column_stats[0].buckets.is_empty());
        // Grow the table past the MCV limit and re-analyze: the column
        // switches to histogram form and the bounds move.
        let info = cat.table_mut("t").unwrap();
        for i in 10..2000 {
            info.heap
                .append_row(&Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 3),
                    Value::Str(format!("n{}", i % 2)),
                ]))
                .unwrap();
        }
        cat.analyze_table("t").unwrap();
        let cs = &cat.table("t").unwrap().column_stats[0];
        assert_eq!(cs.distinct, 2000);
        assert_eq!(cs.max(), Some(&Value::Int32(1999)));
        assert!(!cs.buckets.is_empty());
    }

    #[test]
    fn spill_to_disk_pages_every_table_and_keeps_apis_working() {
        let mut cat = Catalog::new();
        populate(&mut cat, 300);
        cat.analyze_table("t").unwrap();
        assert!(cat.storage().is_none());
        assert_eq!(cat.pool_stats(), BufferPoolStats::default());

        cat.spill_to_disk(1).unwrap();
        let runtime_dir = cat.storage().unwrap().dir().to_path_buf();
        assert!(runtime_dir.join("t.tbl").exists());
        assert!(cat.table("t").unwrap().heap.is_paged());
        // Double spill is a typed error.
        assert!(matches!(cat.spill_to_disk(1), Err(HiqueError::Storage(_))));

        // Re-analyze through the pool: identical statistics, and
        // the tiny budget forces evictions.
        cat.analyze_table("t").unwrap();
        assert_eq!(cat.table("t").unwrap().column_stats[0].distinct, 300);
        let stats = cat.pool_stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.misses > 0, "{stats:?}");

        // Growth after spilling still works and is visible to scans.
        let info = cat.table_mut("t").unwrap();
        info.heap
            .append_row(&Row::new(vec![
                Value::Int32(300),
                Value::Int32(0),
                Value::Str("n0".into()),
            ]))
            .unwrap();
        let mut count = 0usize;
        info.heap.for_each_record(|_| count += 1).unwrap();
        assert_eq!(count, 301);

        // Dropping the catalog removes the spill directory.
        drop(cat);
        assert!(!runtime_dir.exists());
    }
}
