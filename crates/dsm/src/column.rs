//! Vertical decomposition: typed column arrays and the column store.

use std::collections::HashMap;
use std::sync::Arc;

use hique_storage::{BufferPool, Catalog, TableHeap, TempSpace};
use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at, read_str_at};
use hique_types::{DataType, HiqueError, Result, Schema, Value};

/// One decomposed column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit integers (also used for dates).
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// Doubles.
    F64(Vec<f64>),
    /// Strings.
    Str(Vec<String>),
}

impl ColumnData {
    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate in-memory size in bytes (used by the materialization
    /// counters).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Str(v) => v.iter().map(|s| s.len() + 8).sum(),
        }
    }

    /// Value at position `i` as an `f64` (numeric columns only).
    #[inline]
    pub fn f64_at(&self, i: usize) -> f64 {
        match self {
            ColumnData::I32(v) => v[i] as f64,
            ColumnData::I64(v) => v[i] as f64,
            ColumnData::F64(v) => v[i],
            ColumnData::Str(_) => f64::NAN,
        }
    }

    /// The join or grouping key at position `i`: the whole value, a float's
    /// by its bits (`-0.0` and `0.0` are two keys, a NaN is itself).
    #[inline]
    pub fn key_at(&self, i: usize) -> Key<'_> {
        match self {
            ColumnData::I32(v) => Key::Int(v[i] as i64),
            ColumnData::I64(v) => Key::Int(v[i]),
            ColumnData::F64(v) => Key::Int(v[i].to_bits() as i64),
            ColumnData::Str(v) => Key::Str(&v[i]),
        }
    }

    /// Boxed value at position `i`, typed as `dtype` (result construction
    /// only).
    pub fn value_at(&self, i: usize, dtype: DataType) -> Value {
        match self {
            ColumnData::I32(v) => {
                if dtype == DataType::Date {
                    Value::Date(v[i])
                } else {
                    Value::Int32(v[i])
                }
            }
            ColumnData::I64(v) => Value::Int64(v[i]),
            // Expressions compute in f64; the plan's type says what leaves.
            ColumnData::F64(v) => Value::from_f64(v[i], dtype),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// Gather the values at `positions` into a new column.
    pub fn gather(&self, positions: &[u32]) -> ColumnData {
        match self {
            ColumnData::I32(v) => {
                ColumnData::I32(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::I64(v) => {
                ColumnData::I64(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::F64(v) => {
                ColumnData::F64(positions.iter().map(|&p| v[p as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(positions.iter().map(|&p| v[p as usize].clone()).collect())
            }
        }
    }
}

/// A key read from a column ([`ColumnData::key_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key<'a> {
    /// An integer or date, or a float's bits.
    Int(i64),
    /// A string.
    Str(&'a str),
}

/// A vertically decomposed table.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    /// The table's schema.
    pub schema: Schema,
    /// One decomposed array per column, aligned with `schema.columns()`.
    pub columns: Vec<ColumnData>,
    /// Number of rows.
    pub rows: usize,
}

impl ColumnStore {
    /// Decompose an NSM heap into column arrays (the DSM "storage layer";
    /// done at load time, not charged to query execution).  The scan goes
    /// through the heap's mode-agnostic record visitor, so a pool-backed
    /// heap decomposes through pinned frames like any other reader.
    pub fn from_heap(heap: &TableHeap) -> Result<ColumnStore> {
        let schema = heap.schema().clone();
        let n = heap.num_tuples();
        let mut columns: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| match c.dtype {
                DataType::Int32 | DataType::Date => ColumnData::I32(Vec::with_capacity(n)),
                DataType::Int64 => ColumnData::I64(Vec::with_capacity(n)),
                DataType::Float64 => ColumnData::F64(Vec::with_capacity(n)),
                DataType::Char(_) => ColumnData::Str(Vec::with_capacity(n)),
            })
            .collect();
        heap.for_each_record(|record| {
            for (c, col) in schema.columns().iter().enumerate() {
                let off = schema.offset(c);
                match (&mut columns[c], col.dtype) {
                    (ColumnData::I32(v), _) => v.push(read_i32_at(record, off)),
                    (ColumnData::I64(v), _) => v.push(read_i64_at(record, off)),
                    (ColumnData::F64(v), _) => v.push(read_f64_at(record, off)),
                    (ColumnData::Str(v), DataType::Char(w)) => {
                        v.push(read_str_at(record, off, w as usize).to_string())
                    }
                    (ColumnData::Str(v), _) => v.push(String::new()),
                }
            }
        })?;
        Ok(ColumnStore {
            schema,
            columns,
            rows: n,
        })
    }
}

/// All tables of the database, vertically decomposed, plus (for a paged
/// source catalog) handles to its buffer pool and spill space so the DSM
/// executor can route its own intermediates — alignment and gather vectors
/// — through the same `memory_budget_pages` frames.
#[derive(Debug, Default)]
pub struct DsmDatabase {
    tables: HashMap<String, ColumnStore>,
    pool: Option<Arc<BufferPool>>,
    temp: Option<Arc<TempSpace>>,
}

impl DsmDatabase {
    /// Decompose every table of the catalog.  A paged catalog's storage
    /// runtime (pool + spill space) is captured so budgeted DSM executions
    /// can spill their intermediates.
    pub fn from_catalog(catalog: &Catalog) -> Result<DsmDatabase> {
        let mut tables = HashMap::new();
        for name in catalog.table_names() {
            #[expect(
                clippy::expect_used,
                reason = "iterating table_names(); every listed table resolves"
            )]
            let info = catalog.table(name).expect("listed table exists");
            tables.insert(name.to_string(), ColumnStore::from_heap(&info.heap)?);
        }
        Ok(DsmDatabase {
            tables,
            pool: catalog.storage().map(|s| Arc::clone(s.pool())),
            temp: catalog.storage().map(|s| Arc::clone(s.temp())),
        })
    }

    /// Look up a decomposed table.
    pub fn table(&self, name: &str) -> Result<&ColumnStore> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| HiqueError::Catalog(format!("unknown DSM table '{name}'")))
    }

    /// The source catalog's buffer pool, when it runs in paged mode.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// The source catalog's spill space, when it runs in paged mode.
    pub fn temp(&self) -> Option<&Arc<TempSpace>> {
        self.temp.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, Row};

    fn heap() -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("f", DataType::Float64),
            Column::new("s", DataType::Char(4)),
            Column::new("d", DataType::Date),
        ]);
        TableHeap::from_rows(
            schema,
            (0..100).map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Float64(i as f64 / 2.0),
                    Value::Str(format!("s{}", i % 3)),
                    Value::Date(1000 + i),
                ])
            }),
        )
        .unwrap()
    }

    #[test]
    fn decomposition_round_trips_values() {
        let store = ColumnStore::from_heap(&heap()).unwrap();
        assert_eq!(store.rows, 100);
        assert_eq!(store.columns.len(), 4);
        assert_eq!(store.columns[0].len(), 100);
        assert_eq!(
            store.columns[0].value_at(7, DataType::Int32),
            Value::Int32(7)
        );
        assert_eq!(store.columns[1].f64_at(9), 4.5);
        assert_eq!(
            store.columns[2].value_at(4, DataType::Char(4)),
            Value::Str("s1".into())
        );
        assert_eq!(
            store.columns[3].value_at(0, DataType::Date),
            Value::Date(1000)
        );
        assert!(store.columns[1].byte_size() >= 800);
        assert!(!store.columns[0].is_empty());
    }

    #[test]
    fn gather_and_keys() {
        let store = ColumnStore::from_heap(&heap()).unwrap();
        let sel = vec![3u32, 5, 7];
        let g = store.columns[0].gather(&sel);
        assert_eq!(g, ColumnData::I32(vec![3, 5, 7]));
        let gs = store.columns[2].gather(&sel);
        assert_eq!(gs.len(), 3);
        assert_eq!(store.columns[0].key_at(42), Key::Int(42));
        assert_ne!(store.columns[2].key_at(0), store.columns[2].key_at(1));
        assert_eq!(store.columns[2].key_at(0), store.columns[2].key_at(3));
    }

    #[test]
    fn database_from_catalog() {
        let mut catalog = Catalog::new();
        catalog.register_table("t", heap()).unwrap();
        let db = DsmDatabase::from_catalog(&catalog).unwrap();
        assert!(db.table("t").is_ok());
        assert!(db.table("T").is_ok());
        assert!(db.table("missing").is_err());
    }
}
