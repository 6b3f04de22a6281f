//! Table scan iterator with filtering and projection.

use hique_plan::StagedTable;
use hique_storage::{PageRef, TableHeap};
use hique_types::{Result, Row, Schema};

use crate::expr::filters_match;
use crate::iterator::{ExecContext, QueryIterator};

/// Scans a base table heap, applies the staged filters and projects the kept
/// columns — the iterator-engine counterpart of the paper's data staging
/// scan (but producing one `Row` per `next()` call instead of a staged
/// temporary table).
///
/// Pages are held through a [`PageRef`] guard, so the same iterator serves
/// memory-resident heaps (borrowed pages) and pool-backed heaps: a paged
/// heap's current page stays pinned in the buffer pool between `next()`
/// calls and is unpinned when the scan moves on.
pub struct ScanIterator<'a> {
    heap: &'a TableHeap,
    staged: StagedTable,
    ctx: ExecContext,
    page: usize,
    slot: usize,
    current: Option<PageRef<'a>>,
    opened: bool,
}

impl<'a> ScanIterator<'a> {
    /// Create a scan over `heap` described by the plan's staging descriptor.
    pub fn new(heap: &'a TableHeap, staged: StagedTable, ctx: ExecContext) -> Self {
        ScanIterator {
            heap,
            staged,
            ctx,
            page: 0,
            slot: 0,
            current: None,
            opened: false,
        }
    }
}

impl QueryIterator for ScanIterator<'_> {
    fn open(&mut self) -> Result<()> {
        self.ctx.add_calls(1);
        self.page = 0;
        self.slot = 0;
        self.current = None;
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        debug_assert!(self.opened, "next() before open()");
        // The caller/callee pair of the iterator interface.
        self.ctx.add_calls(2);
        loop {
            if self.current.is_none() {
                if self.page >= self.heap.num_pages() {
                    return Ok(None);
                }
                self.ctx.check_cancel()?;
                self.current = Some(self.heap.page_guard(self.page)?);
            }
            // Decode (copying) before advancing, so the record borrow from
            // the guard does not outlive the cursor update.
            let base_schema = self.heap.schema();
            let decoded = {
                #[expect(
                    clippy::expect_used,
                    reason = "pin guard set by the preceding advance of the same cursor"
                )]
                let page = self.current.as_ref().expect("guard set above");
                if self.slot < page.num_tuples() {
                    let record = page.record(self.slot);
                    self.ctx.add_tuple(record.len());
                    // Generic engines decode the whole tuple into boxed
                    // values before doing anything else with it.
                    Some(Row::from_record(base_schema, record))
                } else {
                    None
                }
            };
            let Some(row) = decoded else {
                self.current = None;
                self.page += 1;
                self.slot = 0;
                continue;
            };
            self.slot += 1;
            self.ctx.add_generic_call(base_schema.len() as u64);
            if !filters_match(&self.staged.filters, &row, &self.ctx) {
                continue;
            }
            return Ok(Some(row.project(&self.staged.keep)));
        }
    }

    fn close(&mut self) {
        self.ctx.add_calls(1);
        self.current = None;
        self.opened = false;
    }

    fn schema(&self) -> &Schema {
        &self.staged.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::{drain, ExecMode};
    use hique_plan::StagingStrategy;
    use hique_sql::analyze::ColumnFilter;
    use hique_sql::ast::CmpOp;
    use hique_types::{Column, DataType, Value};

    fn heap() -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
            Column::new("tag", DataType::Char(4)),
        ]);
        TableHeap::from_rows(
            schema,
            (0..100).map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Float64(i as f64 * 0.5),
                    Value::Str(if i % 2 == 0 { "even" } else { "odd" }.into()),
                ])
            }),
        )
        .unwrap()
    }

    fn staged(filters: Vec<ColumnFilter>, keep: Vec<usize>, schema: &Schema) -> StagedTable {
        StagedTable {
            table: 0,
            table_name: "t".into(),
            filters,
            schema: schema.project(&keep),
            keep,
            strategy: StagingStrategy::None,
            estimated_rows: 0,
        }
    }

    #[test]
    fn scan_filters_and_projects() {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Generic);
        let filter = ColumnFilter {
            table: 0,
            column: 0,
            op: CmpOp::Lt,
            value: Value::Int32(10),
        };
        let mut scan = ScanIterator::new(
            &heap,
            staged(vec![filter], vec![1, 0], heap.schema()),
            ctx.clone(),
        );
        let rows = drain(&mut scan, &ctx).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3].values(), &[Value::Float64(1.5), Value::Int32(3)]);
        assert_eq!(scan.schema().names(), vec!["v", "k"]);
        // All 100 tuples were touched even though only 10 survived.
        assert_eq!(ctx.stats().tuples_processed, 100);
        assert!(ctx.stats().function_calls > 200);
    }

    #[test]
    fn scan_without_filters_returns_everything() {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Optimized);
        let mut scan =
            ScanIterator::new(&heap, staged(vec![], vec![0], heap.schema()), ctx.clone());
        let rows = drain(&mut scan, &ctx).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[99].values(), &[Value::Int32(99)]);
    }

    #[test]
    fn string_filter_matches() {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Generic);
        let filter = ColumnFilter {
            table: 0,
            column: 2,
            op: CmpOp::Eq,
            value: Value::Str("even".into()),
        };
        let mut scan = ScanIterator::new(
            &heap,
            staged(vec![filter], vec![0, 2], heap.schema()),
            ctx.clone(),
        );
        let rows = drain(&mut scan, &ctx).unwrap();
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|r| r.get(1) == &Value::Str("even".into())));
    }
}
